package fault

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
)

// armedSlots lists the logical slots opts arm.
func armedSlots(opts []core.Options) []int {
	var slots []int
	for l, o := range opts {
		if o.SkipChecks || o.Tamper != nil || o.Compare != nil || o.CorruptMemory != nil {
			slots = append(slots, l)
		}
	}
	return slots
}

// followCases are one fault of each injectable class at physical node
// 6 of a dim-3 cube.
func followCases() map[string]Case {
	return map[string]Case{
		"message":    {Msg: &Spec{Node: 6, Strategy: SplitLie, ActivateStage: 1, LieValue: 9}},
		"comparison": {Cmp: &CmpSpec{Node: 6, Mode: CmpTransient, Rate: 0.5, Seed: 3, ActivateStage: 1}},
		"memory":     {Mem: &MemSpec{Node: 6, Mode: MemFlip, Rate: 0.5, Seed: 3, ActivateStage: 1}},
	}
}

// TestFollowPlacement pins which logical slot Follow arms as recovery
// remaps a dim-3 cube with spares 8 and 9: spare 8 substituted at node
// 6's slot, then a shrink onto the half-cube of nodes 4..7.
func TestFollowPlacement(t *testing.T) {
	identity := []int{0, 1, 2, 3, 4, 5, 6, 7}
	substituted := []int{0, 1, 2, 3, 4, 5, 8, 7}
	shrunk := []int{4, 5, 6, 7}
	steps := []struct {
		name       string
		site       int
		persistent bool
		attempt    int
		physical   []int
		want       int // armed slot, -1 for none
	}{
		{"first attempt", 6, true, 0, identity, 6},
		{"spare substituted in", 8, true, 1, substituted, 6},
		{"site kept across another's substitution", 7, true, 1, substituted, 7},
		{"site relabelled by a shrink", 6, true, 2, shrunk, 2},
		{"site quarantined by substitution", 6, true, 1, substituted, -1},
		{"site shrunk away", 2, true, 2, shrunk, -1},
		{"transient attempt 0", 6, false, 0, identity, 6},
		{"transient attempt 1", 6, false, 1, identity, -1},
	}
	for class, c := range followCases() {
		for _, st := range steps {
			opts := Follow(Set{c.At(st.site)}, st.persistent)(st.attempt, 3, st.physical)
			got := armedSlots(opts)
			switch {
			case st.want < 0 && len(got) != 0:
				t.Errorf("%s/%s: armed %v, want nothing", class, st.name, got)
			case st.want >= 0 && (len(opts) != len(st.physical) || !slices.Equal(got, []int{st.want})):
				t.Errorf("%s/%s: %d options arming %v, want %d arming [%d]",
					class, st.name, len(opts), got, len(st.physical), st.want)
			}
		}
		if c.Faulty() != 6 {
			t.Errorf("%s: Follow moved the shared case to node %d", class, c.Faulty())
		}
	}
}

// TestFollowSetArmsEachCase pins that Follow keeps every case of a
// placement on its own machine: with spare 8 substituted for machine
// 6, the message fault at 6 is gone and the memory fault at 7 stays at
// slot 7; after a shrink onto machines 4..7 both follow their machines
// to slots 2 and 3.
func TestFollowSetArmsEachCase(t *testing.T) {
	cases := followCases()
	inject := Follow(Set{cases["message"], cases["memory"].At(7)}, true)
	for _, st := range []struct {
		physical []int
		want     []int
	}{
		{[]int{0, 1, 2, 3, 4, 5, 6, 7}, []int{6, 7}},
		{[]int{0, 1, 2, 3, 4, 5, 8, 7}, []int{7}},
		{[]int{4, 5, 6, 7}, []int{2, 3}},
		{[]int{0, 1, 2, 3}, nil},
	} {
		opts := inject(1, 3, st.physical)
		if got := armedSlots(opts); !slices.Equal(got, st.want) {
			t.Errorf("physical %v: armed %v, want %v", st.physical, got, st.want)
		}
		if st.want != nil && opts[st.want[len(st.want)-1]].CorruptMemory == nil {
			t.Errorf("physical %v: the memory fault is not at machine 7's slot", st.physical)
		}
	}
}

// TestFollowArmsAfresh pins that every attempt of a persistent fault
// gets its own comparator or corruptor: attempts 0 and 1 tell the same
// lies. One stream shared across attempts would continue where attempt
// 0 stopped.
func TestFollowArmsAfresh(t *testing.T) {
	physical := []int{0, 1, 2, 3, 4, 5, 6, 7}
	lies := map[string]func(o core.Options) []int64{
		"comparison": func(o core.Options) []int64 {
			out := make([]int64, 64)
			for i := range out {
				if !o.Compare(1, int64(i), int64(i+1)) {
					out[i] = 1
				}
			}
			return out
		},
		"memory": func(o core.Options) []int64 {
			keys := make([]int64, 64)
			o.CorruptMemory(1, keys)
			return keys
		},
	}
	cases := followCases()
	for class, lie := range lies {
		inject := Follow(Set{cases[class]}, true)
		first := lie(inject(0, 3, physical)[6])
		second := lie(inject(1, 3, physical)[6])
		if !slices.ContainsFunc(first, func(v int64) bool { return v != 0 }) {
			t.Errorf("%s: attempt 0 told no lie", class)
		}
		if !slices.Equal(first, second) {
			t.Errorf("%s: attempts 0 and 1 lie differently:\n%v\n%v", class, first, second)
		}
	}
}

// TestFollowSharedCaseConcurrent runs many injectors over one shared
// Case at once, each on its own remapping, as concurrent server jobs
// do. Under -race it shows re-targeting never writes through the
// Case's pointers.
func TestFollowSharedCaseConcurrent(t *testing.T) {
	for class, c := range followCases() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Rotate the labels so site 6 sits at slot (6+g) mod 8.
				physical := make([]int, 8)
				for l := range physical {
					physical[l] = (l - g + 8) % 8
				}
				inject := Follow(Set{c}, true)
				for attempt := 0; attempt < 20; attempt++ {
					got := armedSlots(inject(attempt, 3, physical))
					if want := (6 + g) % 8; !slices.Equal(got, []int{want}) {
						t.Errorf("%s, rotation %d: armed %v, want [%d]", class, g, got, want)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if c.Faulty() != 6 {
			t.Errorf("%s: concurrent injectors moved the shared case to node %d", class, c.Faulty())
		}
	}
}
