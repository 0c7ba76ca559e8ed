package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/hypercube"
	"repro/internal/wire"
)

// TestFigure5Trace reproduces the paper's Figure 5 worked example end
// to end and pins the per-stage verified sequences.
func TestFigure5Trace(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wantLines := []string{
		"sorting [10 8 3 9 4 2 7 5] on 8 nodes",
		"SC[0..1]  LBS = [10 8]",
		"SC[2..3]  LBS = [3 9]",
		"SC[4..5]  LBS = [4 2]",
		"SC[6..7]  LBS = [7 5]",
		"SC[0..3]  LBS = [8 10 9 3]",
		"SC[4..7]  LBS = [2 4 7 5]",
		"SC[0..7]  LBS = [3 8 9 10 7 5 4 2]",
		"LBS = [2 3 4 5 7 8 9 10]",
		"Result across nodes 0..7: [2 3 4 5 7 8 9 10]",
	}
	for _, want := range wantLines {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n---\n%s", want, out)
		}
	}
	if strings.Contains(out, "DISAGREE") || strings.Contains(out, "ERROR") {
		t.Errorf("honest trace reported trouble:\n%s", out)
	}
}

func TestCustomKeys(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-keys", "4,3,2,1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Result across nodes 0..3: [1 2 3 4]") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestRejectsBadInput(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-keys", "1,2,3"}, &buf); err == nil {
		t.Error("non-power-of-two count: want error")
	}
	if err := run([]string{"-keys", "x"}, &buf); err == nil {
		t.Error("garbage key: want error")
	}
	if err := run([]string{"-keys", ""}, &buf); err == nil {
		t.Error("empty keys: want error")
	}
}

// TestCausalTableOrdered pins the -causal table to (stage, node) order
// and to the same bytes on every run: the stage-view stream delivers
// views in goroutine arrival order, which must not reach the output.
func TestCausalTableOrdered(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		if err := run([]string{"-causal"}, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := render()
	_, table, ok := strings.Cut(first, "Causal event ids")
	if !ok {
		t.Fatalf("no causal table:\n%s", first)
	}
	table, _, _ = strings.Cut(table, "\n\n")
	lines := strings.Split(table, "\n")[1:]
	if len(lines) != 32 {
		t.Fatalf("causal table has %d lines, want 8 nodes x 4 stages:\n%s", len(lines), table)
	}
	prevStage, prevNode := -1, -1
	for _, line := range lines {
		var node, stage int
		var id uint64
		if _, err := fmt.Sscanf(line, "  node %d stage %d: %d", &node, &stage, &id); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if stage < prevStage || stage == prevStage && node <= prevNode {
			t.Fatalf("line %q out of (stage, node) order after stage %d node %d", line, prevStage, prevNode)
		}
		prevStage, prevNode = stage, node
	}
	if second := render(); second != first {
		t.Errorf("two runs printed different output:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestTraceProperties checks the wire-derived trace beyond the Figure 5
// list, on random key lists with duplicates at dims 1-5: every stage
// prints one line per subcube of dimension stage+1 and the final round
// one line, none marked as a disagreement; stage 0 shows the input
// pairs; each later stage shows the input keys of its subcube with
// each half sorted in that half's previous-stage direction; the final
// round shows the sorted input; and -causal gives every node one id
// per stage, owned by the node or its dimension-0 partner.
func TestTraceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1989))
	for dim := 1; dim <= 5; dim++ {
		for trial := 0; trial < 3; trial++ {
			n := 1 << dim
			keys := make([]int64, n)
			strs := make([]string, n)
			for i := range keys {
				keys[i] = int64(rng.Intn(n/2 + 1))
				strs[i] = strconv.FormatInt(keys[i], 10)
			}
			var buf bytes.Buffer
			if err := run([]string{"-causal", "-keys", strings.Join(strs, ",")}, &buf); err != nil {
				t.Fatalf("keys %v: %v", keys, err)
			}
			checkTrace(t, dim, keys, buf.String())
		}
	}
}

// traceLine is one printed subcube line of a trace.
type traceLine struct {
	start, end int
	lbs        []int64
}

// checkTrace parses a -causal trace of keys on a dim-cube and checks
// the properties TestTraceProperties names.
func checkTrace(t *testing.T, dim int, keys []int64, out string) {
	t.Helper()
	n := 1 << dim
	topo := hypercube.MustNew(dim)
	stages := map[int][]traceLine{}
	ids := map[[2]int][]wire.EventID{} // {node, stage} -> ids
	stage := -1
	for _, line := range strings.Split(out, "\n") {
		var a, b int
		var id uint64
		switch {
		case strings.Contains(line, "DISAGREE"):
			t.Fatalf("keys %v: %q", keys, line)
		case strings.HasPrefix(line, "End of stage "):
			if _, err := fmt.Sscanf(line, "End of stage %d", &stage); err != nil {
				t.Fatalf("line %q: %v", line, err)
			}
		case strings.HasPrefix(line, "Final verification"):
			stage = dim
		case strings.HasPrefix(line, "  SC["):
			if _, err := fmt.Sscanf(line, "  SC[%d..%d]", &a, &b); err != nil {
				t.Fatalf("line %q: %v", line, err)
			}
			_, list, _ := strings.Cut(line, "LBS = [")
			var lbs []int64
			for _, f := range strings.Fields(strings.TrimSuffix(list, "]")) {
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					t.Fatalf("line %q: %v", line, err)
				}
				lbs = append(lbs, v)
			}
			stages[stage] = append(stages[stage], traceLine{a, b, lbs})
		case strings.HasPrefix(line, "  node "):
			if _, err := fmt.Sscanf(line, "  node %d stage %d: %d", &a, &b, &id); err != nil {
				t.Fatalf("line %q: %v", line, err)
			}
			ids[[2]int{a, b}] = append(ids[[2]int{a, b}], wire.EventID(id))
		}
	}
	if len(stages) != dim+1 {
		t.Fatalf("keys %v: %d stages printed, want %d:\n%s", keys, len(stages), dim+1, out)
	}
	for s := 0; s <= dim; s++ {
		size := min(2<<s, n)
		lines := stages[s]
		if len(lines) != n/size {
			t.Fatalf("keys %v stage %d: %d lines, want %d:\n%s", keys, s, len(lines), n/size, out)
		}
		for k, l := range lines {
			start := k * size
			if l.start != start || l.end != start+size-1 || len(l.lbs) != size {
				t.Fatalf("keys %v stage %d line %d: SC[%d..%d] with %d keys, want SC[%d..%d]",
					keys, s, k, l.start, l.end, len(l.lbs), start, start+size-1)
			}
			in, got := slices.Clone(keys[start:start+size]), slices.Clone(l.lbs)
			slices.Sort(in)
			if slices.Sort(got); !slices.Equal(got, in) {
				t.Errorf("keys %v stage %d: SC[%d..%d] holds %v, not its input keys", keys, s, l.start, l.end, l.lbs)
			}
			switch {
			case s == 0:
				if !slices.Equal(l.lbs, keys[start:start+size]) {
					t.Errorf("keys %v stage 0: SC[%d..%d] = %v, want the input pair", keys, l.start, l.end, l.lbs)
				}
			case s == dim:
				if !slices.IsSorted(l.lbs) {
					t.Errorf("keys %v final: %v not sorted", keys, l.lbs)
				}
			default:
				for h := start; h < start+size; h += size / 2 {
					half := l.lbs[h-start : h-start+size/2]
					if !sortedIn(half, topo.Ascending(s-1, h)) {
						t.Errorf("keys %v stage %d: half at %d = %v not sorted ascending=%v",
							keys, s, h, half, topo.Ascending(s-1, h))
					}
				}
			}
		}
	}
	for node := 0; node < n; node++ {
		for s := 0; s <= dim; s++ {
			got := ids[[2]int{node, s}]
			if len(got) != 1 {
				t.Fatalf("keys %v: node %d stage %d has %d causal ids, want 1", keys, node, s, len(got))
			}
			if owner := int(got[0].Node()); owner != node && owner != node^1 {
				t.Errorf("keys %v: node %d stage %d causal id belongs to node %d", keys, node, s, owner)
			}
		}
	}
}

// sortedIn reports whether xs is sorted ascending, or descending when
// ascending is false.
func sortedIn(xs []int64, ascending bool) bool {
	for i := 1; i < len(xs); i++ {
		if ascending && xs[i-1] > xs[i] || !ascending && xs[i-1] < xs[i] {
			return false
		}
	}
	return true
}

// TestRenderMarksDisagreement feeds the tap complete views of one
// subcube that differ, in a key or in length, as a lying node's echo
// would show, and expects only those lines marked; an empty tap
// renders nothing.
func TestRenderMarksDisagreement(t *testing.T) {
	tap := &viewTap{views: []fullView{
		{stage: 0, start: 0, size: 2, from: 0, to: 1, lbs: []int64{4, 3}},
		{stage: 0, start: 0, size: 2, from: 1, to: 0, lbs: []int64{4, 3}},
		{stage: 0, start: 2, size: 2, from: 2, to: 3, lbs: []int64{2, 1}},
		{stage: 0, start: 2, size: 2, from: 3, to: 2, lbs: []int64{2, 9}},
		{stage: 1, start: 0, size: 4, from: 0, to: 1, lbs: []int64{3, 4, 2, 1}},
		{stage: 1, start: 0, size: 4, from: 2, to: 3, lbs: []int64{3, 4, 2}},
	}}
	want := "End of stage 0 — verified LBS per home subcube:\n" +
		"  SC[0..1]  LBS = [4 3]\n" +
		"  SC[2..3]  LBS = [2 1]  (NODES DISAGREE)\n\n" +
		"End of stage 1 — verified LBS per home subcube:\n" +
		"  SC[0..3]  LBS = [3 4 2 1]  (NODES DISAGREE)\n\n"
	if got := tap.render(2); got != want {
		t.Errorf("render:\n%s\nwant:\n%s", got, want)
	}
	if got := new(viewTap).render(2); got != "" {
		t.Errorf("empty tap rendered %q", got)
	}
}
