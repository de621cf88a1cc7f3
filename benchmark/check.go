package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/loopir"
)

// checkOutputs compares every array of the sequential reference with the
// gathered result, bit for bit. A missing array, a shape mismatch or any
// element whose float64 bits differ is an error naming the first
// difference.
func checkOutputs(ref, got map[string]*loopir.Array) error {
	if len(ref) == 0 {
		return fmt.Errorf("check: empty reference")
	}
	names := make([]string, 0, len(ref))
	for name := range ref {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want, have := ref[name], got[name]
		if have == nil {
			return fmt.Errorf("check: array %s missing from the result", name)
		}
		if len(have.Data) != len(want.Data) {
			return fmt.Errorf("check: array %s has %d elements, want %d", name, len(have.Data), len(want.Data))
		}
		for i, w := range want.Data {
			if math.Float64bits(have.Data[i]) != math.Float64bits(w) {
				return fmt.Errorf("check: array %s element %d = %v, want %v", name, i, have.Data[i], w)
			}
		}
	}
	return nil
}
