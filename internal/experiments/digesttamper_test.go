package experiments

import "testing"

// TestDigestAwareTampersNeverSilent is the adversarial check for the
// digest fast path: a tamper that corrupts the aggregate digest while
// relaying honest entries (digest-lie) and a tamper that corrupts the
// entries while preserving the multiset — and therefore the digest —
// (permute-lie) must both end every run verified-or-detected on both
// algorithms. "Correct" outcomes are acceptable (a lie that lands only
// on receivers whose state it cannot change is harmless); silent-wrong
// is not, per Theorem 3.
func TestDigestAwareTampersNeverSilent(t *testing.T) {
	cells, err := MeasureCoverage(goldenSweep())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, c := range cells {
		if c.Label != "digest-lie" && c.Label != "permute-lie" {
			continue
		}
		seen[c.Algo+"/"+c.Label]++
		if c.Silent != 0 {
			t.Errorf("%s %s dim %d: %d silent-wrong run(s)", c.Algo, c.Label, c.Dim, c.Silent)
		}
		if c.Detected+c.Correct != c.Runs {
			t.Errorf("%s %s dim %d: verdicts %d+%d don't cover %d runs",
				c.Algo, c.Label, c.Dim, c.Detected, c.Correct, c.Runs)
		}
		// A forged aggregate digest over honest entries is direct
		// Byzantine evidence in the block algorithm: every relayed
		// view there carries slots the receiver already holds, so the
		// inconsistency must actually be caught, not merely neutered.
		if c.Algo == AlgoBlockFT && c.Label == "digest-lie" && c.Detected == 0 {
			t.Errorf("BlockFT digest-lie dim %d: never detected", c.Dim)
		}
	}
	for _, key := range []string{
		AlgoSFT + "/digest-lie", AlgoSFT + "/permute-lie",
		AlgoBlockFT + "/digest-lie", AlgoBlockFT + "/permute-lie",
	} {
		if seen[key] == 0 {
			t.Errorf("sweep produced no %s cells", key)
		}
	}
}
