package server

import (
	"errors"
	"testing"

	"repro/internal/fault"
)

// TestChaosCompileDefaults pins what a ChaosSpec arms: a message lie
// of 0 means 424242, a rate of 0 means 1, the memory stuck value is
// Lie as given, and every fault activates at stage 1.
func TestChaosCompileDefaults(t *testing.T) {
	compile := func(c ChaosSpec) fault.Case {
		t.Helper()
		fc, err := c.compile()
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		return fc
	}
	msg := compile(ChaosSpec{Class: "message", Node: 1, Strategy: "split-lie"}).Msg
	want := fault.Spec{Node: 1, Strategy: fault.SplitLie, ActivateStage: 1, LieValue: 424242}
	if msg == nil || *msg != want {
		t.Errorf("message: %+v, want %+v", msg, want)
	}
	if lie := compile(ChaosSpec{Class: "message", Strategy: "key-lie", Lie: -3}).Msg.LieValue; lie != -3 {
		t.Errorf("message lie %d, want -3", lie)
	}
	cmp := compile(ChaosSpec{Class: "comparison", Node: 2, Mode: "cmp-transient", Seed: 9}).Cmp
	wantCmp := fault.CmpSpec{Node: 2, Mode: fault.CmpTransient, Rate: 1, Seed: 9, ActivateStage: 1}
	if cmp == nil || *cmp != wantCmp {
		t.Errorf("comparison: %+v, want %+v", cmp, wantCmp)
	}
	mem := compile(ChaosSpec{Class: "memory", Node: 3, Mode: "mem-stuck", Rate: 0.5, Seed: 4, Lie: -5}).Mem
	wantMem := fault.MemSpec{Node: 3, Mode: fault.MemStuck, Rate: 0.5, Seed: 4, ActivateStage: 1, StuckValue: -5}
	if mem == nil || *mem != wantMem {
		t.Errorf("memory: %+v, want %+v", mem, wantMem)
	}
	if stuck := compile(ChaosSpec{Class: "memory", Mode: "mem-wipe"}).Mem.StuckValue; stuck != 0 {
		t.Errorf("memory stuck value %d with Lie 0, want 0", stuck)
	}

	for _, bad := range []ChaosSpec{
		{Class: "cosmic-ray"},
		{Class: "message", Strategy: "fib"},
		{Class: "comparison", Mode: "mem-flip"},
		{Class: "memory", Mode: "cmp-persistent"},
		{Class: "comparison", Mode: "cmp-persistent", Rate: 1.5},
	} {
		if _, err := bad.compile(); err == nil {
			t.Errorf("%+v compiled", bad)
		}
	}
}

// TestChaosNodeAdmission pins that a fault must sit on a label the job
// can have: one of its cube's 2^d nodes or of the spares beyond them.
// The test server pools 2 spares, so a dim-2 job has labels 0..5.
func TestChaosNodeAdmission(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	keys := []int64{9, 3, 14, 7, 0, 12, 5, 1, 15, 8, 2, 11, 6, 13, 4, 10}
	lie := func(node int) *ChaosSpec {
		return &ChaosSpec{Class: "message", Node: node, Strategy: "key-lie", Lie: 999999}
	}
	for _, req := range []Request{
		{Keys: keys, Dim: 2, Inject: lie(9)},
		{Keys: keys, Inject: lie(9)}, // automatic dim: 2 for 16 keys
		{Keys: keys, Dim: 2, Inject: lie(6)},
		{Keys: keys, Dim: 2, Inject: lie(-1)},
	} {
		if _, err := s.Submit(req); !errors.Is(err, ErrInvalid) {
			t.Errorf("dim %d, node %d: want ErrInvalid, got %v", req.Dim, req.Inject.Node, err)
		}
	}
	// Spare 5 is never substituted in, so its fault never strikes.
	resp, err := s.Submit(Request{Keys: keys, Dim: 2, Inject: lie(5)})
	if err != nil {
		t.Fatalf("fault on spare 5 rejected: %v", err)
	}
	assertVerified(t, keys, resp, false)
}
