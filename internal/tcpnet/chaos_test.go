package tcpnet

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/recovery"
	"repro/internal/reliablesort"
	"repro/internal/transport"
)

// TestBlocksortChaosOverTCP drives the FT block sort over real sockets
// with one node made Byzantine: the same fault.Spec strategies the
// simnet experiments use, but with the lie crossing a genuine TCP
// connection. Honest peers must detect the fault (fail-stop, Theorem
// 3) — the faulty node runs with SkipChecks so it never reports itself.
func TestBlocksortChaosOverTCP(t *testing.T) {
	const dim, faulty = 3, 5
	spec := fault.Spec{Node: faulty, Strategy: fault.KeyLie, ActivateStage: 1, LieValue: 7777}
	if err := spec.Validate(1 << dim); err != nil {
		t.Fatal(err)
	}

	// Short timeout: once honest nodes fail-stop, their partners wait
	// out the absence timeout, so a long one only slows the test.
	nw, err := New(Config{Dim: dim, RecvTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	n := 1 << dim
	keys := make([]int64, 0, 4*n)
	for id := 0; id < n; id++ {
		base := int64((n - id) * 10)
		keys = append(keys, base, base-3, base+5, base-7)
	}
	opts := make([]core.Options, n)
	opts[faulty] = core.Options{SkipChecks: true, Tamper: spec.Tamper()}

	oc, err := core.RunBlocks(nw, keys, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !oc.Detected() {
		t.Fatal("key lie over TCP went undetected")
	}
	for _, he := range oc.HostErrors {
		if he.Node == faulty {
			t.Errorf("faulty node %d reported itself despite SkipChecks: %+v", faulty, he)
		}
	}
}

// TestSpareSubstitutionOverTCP closes the loop at the top of the
// stack: a persistent Byzantine node over real sockets, supervised by
// the full AutoRecover path with one spare pooled and *real* backoff
// sleeps (no virtual Sleep injection). The run must detect, retry,
// quarantine the fault site, activate the pre-registered spare
// connection, and complete at full cube dimension.
func TestSpareSubstitutionOverTCP(t *testing.T) {
	const dim, faulty = 3, 5
	keys := []int64{41, -7, 13, 99, 0, -52, 8, 27, 64, -1, 300, 5, -9, 72, 2, 18}

	opts := reliablesort.Options{
		Dim:         dim,
		RecvTimeout: 400 * time.Millisecond,
		AutoRecover: true,
		MaxAttempts: 6,
		Spares:      1,
		// Real sleeping between attempts, kept short: the point is
		// that the wall-clock backoff path runs, not that it is long.
		Backoff: recovery.Backoff{Base: 2 * time.Millisecond, Max: 8 * time.Millisecond},
		Inject: func(attempt, d int, physical []int) []core.Options {
			nodeOpts := make([]core.Options, 1<<uint(d))
			for l, ph := range physical {
				if ph == faulty {
					spec := fault.Spec{Node: l, Strategy: fault.KeyLie, ActivateStage: 1, LieValue: 7777}
					nodeOpts[l] = core.Options{SkipChecks: true, Tamper: spec.Tamper()}
				}
			}
			return nodeOpts
		},
		NewNetwork: func(cfg reliablesort.NetConfig) (transport.Network, error) {
			return New(Config{Dim: cfg.Dim, Spares: cfg.Spares, RecvTimeout: cfg.RecvTimeout, Obs: cfg.Obs})
		},
	}
	start := time.Now()
	out, stats, err := reliablesort.Sort(keys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reliablesort.IsSorted(out, opts) || len(out) != len(keys) {
		t.Fatalf("unsorted or truncated result: %v", out)
	}
	rep := stats.Recovery
	if rep == nil {
		t.Fatal("no recovery report")
	}
	if rep.FinalDim != dim || stats.Nodes != 1<<dim {
		t.Fatalf("recovered at dim %d with %d nodes, want full dim %d", rep.FinalDim, stats.Nodes, dim)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != faulty {
		t.Fatalf("quarantined %v, want [%d]", rep.Quarantined, faulty)
	}
	if len(rep.Substitutions) != 1 || rep.Substitutions[0].Spare != 1<<dim || rep.Substitutions[0].Suspect != faulty {
		t.Fatalf("substitutions %v, want spare %d at suspect %d", rep.Substitutions, 1<<dim, faulty)
	}
	// The backoff really slept: the supervisor records nonzero waits
	// and the run took at least that long on the wall clock.
	if rep.TotalBackoff <= 0 {
		t.Fatalf("TotalBackoff = %v, want real wall-clock waits", rep.TotalBackoff)
	}
	if elapsed := time.Since(start); elapsed < rep.TotalBackoff {
		t.Fatalf("run finished in %v, less than its own recorded backoff %v", elapsed, rep.TotalBackoff)
	}
}
