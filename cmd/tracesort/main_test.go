package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
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
