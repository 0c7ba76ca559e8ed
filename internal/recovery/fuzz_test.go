package recovery

import (
	"math/rand"
	"testing"
)

// The quarantine remap decides substitution vs. shrink vs. no-action
// from state assembled across attempts; a wrong decision here corrupts
// the logical→physical indirection every later attempt trusts. The
// fuzzer hands it arbitrary (dim, slot, pool, floor) combinations —
// malformed ones included — and checks it either rejects them
// (acted == false, inputs echoed back untouched) or performs exactly
// one well-formed repair. It must never panic: the dim-0 "shrink"
// that would compute a negative axis is the canonical trap.
func FuzzRemap(f *testing.F) {
	f.Add(3, 5, 1, 2, int64(11), false)
	f.Add(3, 0, 1, 0, int64(7), false)  // dry pool: shrink
	f.Add(1, 1, 1, 0, int64(3), false)  // at the dimension floor: no action
	f.Add(0, 0, 0, 0, int64(1), false)  // dim 0: must refuse to shrink
	f.Add(0, 0, 0, 1, int64(1), false)  // dim 0 with a spare: substitution ok
	f.Add(2, 7, 1, 3, int64(9), true)   // corrupted map length: reject
	f.Add(5, -4, 1, 2, int64(5), false) // negative slot: reject
	f.Fuzz(func(t *testing.T, dim, logical, minDim, nspares int, seed int64, corrupt bool) {
		if dim < -1 {
			dim = -1 + (-dim)%10
		}
		if dim > 8 {
			dim = dim % 9
		}
		if nspares < 0 {
			nspares = -nspares
		}
		nspares %= 8

		rng := rand.New(rand.NewSource(seed))
		size := 0
		if dim >= 0 {
			size = 1 << uint(dim)
		}
		if corrupt && size > 0 {
			size += 1 + rng.Intn(3) // violate len(physical) == 2^dim
		}
		physical := rng.Perm(size + nspares + 4)[:size]
		spares := make([]int, nspares)
		for i := range spares {
			spares[i] = size + 100 + i
		}
		physIn := append([]int(nil), physical...)
		sparesIn := append([]int(nil), spares...)

		newPhys, newSpares, newDim, spare, acted := remap(physical, spares, logical, dim, minDim)

		if !acted {
			// Rejection must be total: inputs echoed back unchanged.
			if spare != NoNode || newDim != dim {
				t.Fatalf("acted=false but spare=%d newDim=%d (dim %d)", spare, newDim, dim)
			}
			if len(newPhys) != len(physIn) || len(newSpares) != len(sparesIn) {
				t.Fatalf("acted=false but slices resized: %v / %v", newPhys, newSpares)
			}
			for i := range physIn {
				if newPhys[i] != physIn[i] {
					t.Fatalf("acted=false but physical mutated: %v -> %v", physIn, newPhys)
				}
			}
			return
		}

		// Any action requires a well-formed input.
		if dim < 0 || logical < 0 || logical >= len(physIn) || len(physIn) != 1<<uint(dim) {
			t.Fatalf("acted on malformed input: dim=%d logical=%d len=%d", dim, logical, len(physIn))
		}
		if newDim != dim && newDim != dim-1 {
			t.Fatalf("newDim %d not in {%d,%d}", newDim, dim, dim-1)
		}
		if len(newPhys) != 1<<uint(newDim) {
			t.Fatalf("%d labels for dim %d", len(newPhys), newDim)
		}
		seen := make(map[int]bool, len(newPhys))
		for _, ph := range newPhys {
			if seen[ph] {
				t.Fatalf("label %d mapped twice in %v", ph, newPhys)
			}
			seen[ph] = true
		}

		if spare != NoNode {
			// Substitution: pool head lands exactly at the suspect's
			// slot, dimension preserved, pool shortened by one.
			if spare != sparesIn[0] {
				t.Fatalf("substituted %d, pool head was %d", spare, sparesIn[0])
			}
			if newDim != dim {
				t.Fatalf("substitution changed dim %d -> %d", dim, newDim)
			}
			if newPhys[logical] != spare {
				t.Fatalf("spare %d not at slot %d: %v", spare, logical, newPhys)
			}
			for i := range newPhys {
				if i != logical && newPhys[i] != physIn[i] {
					t.Fatalf("substitution disturbed slot %d: %v -> %v", i, physIn, newPhys)
				}
			}
			if len(newSpares) != len(sparesIn)-1 {
				t.Fatalf("pool went %d -> %d", len(sparesIn), len(newSpares))
			}
			for i := range newSpares {
				if newSpares[i] != sparesIn[i+1] {
					t.Fatalf("pool reordered: %v -> %v", sparesIn, newSpares)
				}
			}
			return
		}

		// Shrink: only with a dry pool, never at or below the floor,
		// never from dim 0; survivors are prior members minus the
		// suspect.
		if len(sparesIn) != 0 {
			t.Fatalf("shrank with %d spares pooled", len(sparesIn))
		}
		if dim <= minDim || dim == 0 {
			t.Fatalf("shrank from dim %d with floor %d", dim, minDim)
		}
		if newDim != dim-1 {
			t.Fatalf("shrink changed dim %d -> %d", dim, newDim)
		}
		prior := make(map[int]bool, len(physIn))
		for _, ph := range physIn {
			prior[ph] = true
		}
		for _, ph := range newPhys {
			if !prior[ph] {
				t.Fatalf("shrink invented label %d: %v from %v", ph, newPhys, physIn)
			}
			if ph == physIn[logical] {
				t.Fatalf("shrink retained the suspect %d: %v", ph, newPhys)
			}
		}
	})
}
