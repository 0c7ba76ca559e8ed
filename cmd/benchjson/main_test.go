package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// writeReport writes a report holding points to a temporary file and
// returns its path.
func writeReport(t *testing.T, points ...Point) string {
	t.Helper()
	raw, err := json.Marshal(Report{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGateAllocs(t *testing.T) {
	base := writeReport(t,
		Point{Name: "Fig6_SFT/N=4", AllocsPerOp: 100},
		Point{Name: "Fig8_BlockFT/N=4/m=64", AllocsPerOp: 50},
		Point{Name: "Fig6_SNR/N=4", AllocsPerOp: 10},
	)

	err := gateAllocs(base, []Point{
		{Name: "Fig6_SFT/N=4", AllocsPerOp: 100},
		{Name: "Fig8_BlockFT/N=4/m=64", AllocsPerOp: 51},
	})
	if err == nil || !strings.Contains(err.Error(), "Fig8_BlockFT/N=4/m=64: 51 allocs/op > baseline 50") {
		t.Errorf("gated row above its baseline: err = %v", err)
	}
	if err != nil && strings.Contains(err.Error(), "Fig6_SFT/N=4") {
		t.Errorf("gated row at its baseline reported: %v", err)
	}

	if err := gateAllocs(base, []Point{
		{Name: "Fig6_SFT/N=4", AllocsPerOp: 100},
		{Name: "Fig8_BlockFT/N=4/m=64", AllocsPerOp: 49},
	}); err != nil {
		t.Errorf("gated rows at or below their baseline: %v", err)
	}

	if err := gateAllocs(base, []Point{
		{Name: "Fig6_SNR/N=4", AllocsPerOp: 1000},
		{Name: "Micro_PhiF_Map/n=4096", AllocsPerOp: 1000},
		{Name: "Fig6_SFT/N=64", AllocsPerOp: 1000},
	}); err != nil {
		t.Errorf("ungated rows and rows missing from the baseline must be skipped: %v", err)
	}

	if err := gateAllocs(filepath.Join(t.TempDir(), "missing.json"), nil); err == nil {
		t.Error("missing baseline: want error")
	}
}

// The pinned-point table and the committed report must list the same
// protocol rows in the same order, so neither can drift from the other.
func TestPinnedMatchesCommittedReport(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_PR7.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	type row struct {
		name string
		n, m int
	}
	var want []row
	for _, p := range rep.Points {
		if !strings.HasPrefix(p.Name, "Micro_") {
			want = append(want, row{p.Name, p.N, p.M})
		}
	}
	var got []row
	for _, p := range experiments.Pinned {
		got = append(got, row{p.Name, 1 << uint(p.Dim), p.M})
	}
	if len(got) != len(want) {
		t.Fatalf("%d pinned points, %d protocol rows in BENCH_PR7.json", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d: pinned %+v, BENCH_PR7.json %+v", i, got[i], want[i])
		}
	}
}
