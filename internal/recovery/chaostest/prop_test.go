package chaostest

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/recovery"
)

// scriptedRunner fails, succeeds, and accuses at random (but
// deterministically per seed), modelling every behaviour a real
// attempt can exhibit: verified success, attributable failure
// (accusing a random logical node, sometimes consistently enough to
// trigger quarantine), and unattributable failure.
func scriptedRunner(rng *rand.Rand, failBias float64) recovery.Runner {
	var stickySuspect = -1
	return func(p recovery.Plan) recovery.Outcome {
		out := recovery.Outcome{Cost: 1 + rng.Int63n(5000)}
		if rng.Float64() >= failBias {
			return out // verified success
		}
		out.Err = fmt.Errorf("scripted failure at attempt %d", p.Attempt)
		switch rng.Intn(4) {
		case 0:
			// Unattributable failure: no evidence at all.
		case 1:
			// Fresh random accusation.
			out.HostErrors = accuseLogical(rng.Intn(len(p.Physical)))
		default:
			// Sticky accusation: the same logical slot accused again
			// and again, the pattern that trips the persistence streak.
			if stickySuspect < 0 || stickySuspect >= len(p.Physical) {
				stickySuspect = rng.Intn(len(p.Physical))
			}
			out.HostErrors = accuseLogical(stickySuspect)
		}
		return out
	}
}

// accuseLogical is one consistency accusation against a logical node,
// the evidence shape the diagnosis layer ranks highest.
func accuseLogical(node int) []core.HostError {
	return []core.HostError{{
		Node: 0, Stage: 1, Iter: 0, Predicate: "consistency",
		Kind: core.KindValue, Accused: node, Detail: "copies differ",
	}}
}

// TestReportSelfConsistencyProperty drives many random scripted
// supervisions straight into recovery.Supervise and asserts every
// Report is self-consistent (VerifyReport), stays within its budget
// and the dimension floor, and activates spares in pool order.
func TestReportSelfConsistencyProperty(t *testing.T) {
	const runs = 400
	rng := rand.New(rand.NewSource(19890612))
	for i := 0; i < runs; i++ {
		dim := 1 + rng.Intn(3)
		spares := rng.Intn(4)
		pol := recovery.Policy{
			MaxAttempts: 1 + rng.Intn(8),
			Spares:      spares,
			Seed:        rng.Int63() | 1,
			Sleep:       func(time.Duration) {},
		}
		failBias := 0.3 + rng.Float64()*0.6
		runSeed := rng.Int63()
		rep, err := recovery.Supervise(dim, scriptedRunner(rand.New(rand.NewSource(runSeed)), failBias), pol)
		if err != nil {
			var ex *recovery.ExhaustedError
			if !errors.As(err, &ex) {
				t.Fatalf("run %d (seed %d): unstructured error: %v", i, runSeed, err)
			}
			rep = ex.Report
		}
		if err := VerifyReport(rep, nil); err != nil {
			t.Fatalf("run %d (seed %d, dim %d, spares %d): %v\nattempts: %+v",
				i, runSeed, dim, spares, err, rep.Attempts)
		}
		if len(rep.Attempts) > pol.MaxAttempts {
			t.Fatalf("run %d: %d attempts exceed budget %d", i, len(rep.Attempts), pol.MaxAttempts)
		}
		// The supervisor's dimension floor, 1, holds in every
		// trajectory.
		for _, a := range rep.Attempts {
			if a.Dim < 1 {
				t.Fatalf("run %d: attempt %d ran below the floor: dim %d", i, a.Index, a.Dim)
			}
		}
		// Spares are consumed at most once each, in pool order: the
		// labels just above the initial cube.
		used := rep.SparesUsed()
		if len(used) > spares {
			t.Fatalf("run %d: %d spares activated from a pool of %d", i, len(used), spares)
		}
		for j, s := range used {
			if s != 1<<uint(dim)+j {
				t.Fatalf("run %d: spares activated %v, out of pool order", i, used)
			}
		}
	}
}
