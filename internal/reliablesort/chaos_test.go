package reliablesort

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/recovery"
)

// chaosKeys is a fixed 16-key workload: dim 3 → 8 nodes × 2 keys/node,
// no padding.
var chaosKeys = []int64{10, 8, 3, 9, 4, 2, 7, 5, 31, -6, 14, 0, 22, -9, 17, 1}

// chaosInjector places one Byzantine processor at the given *physical*
// fault site. A transient fault manifests only on attempt 0; a
// persistent one manifests on every attempt for as long as the site is
// still mapped into the cube — after quarantine the injector finds no
// logical slot for it and the degraded re-run is clean.
func chaosInjector(st fault.Strategy, site int, persistent bool) func(attempt, dim int, physical []int) []core.Options {
	return func(attempt, dim int, physical []int) []core.Options {
		opts := make([]core.Options, 1<<uint(dim))
		if !persistent && attempt > 0 {
			return opts
		}
		for l, ph := range physical {
			if ph == site {
				spec := fault.Spec{Node: l, Strategy: st, ActivateStage: 1, LieValue: 7777}
				opts[l] = core.Options{SkipChecks: true, Tamper: spec.Tamper()}
				break
			}
		}
		return opts
	}
}

// Two carve-outs to the harness's localization invariant, both for
// lies about *relayed content* (see core's blockView.mergeChecked):
//
//   - harmlessPersistent: a relayed-entry corruption can land
//     exclusively on receivers that already hold every relayed slot.
//     Such a merge compares state but never adopts, so the lie cannot
//     change any node's view; with the sender's honest aggregate
//     digest riding along, the receiver accepts in O(1) and the run
//     completes verified and correct on the first attempt — the
//     application-oriented outcome (correct despite fault) rather
//     than detect-and-retry.
//   - ambiguousAttribution: a multiset-preserving permutation of a
//     relayed view is indistinguishable, at the node that finally
//     observes a copy conflict, from the relayer of the conflicting
//     honest copy having lied — the evidence may accuse a node on the
//     relay path instead of the permuter. Recovery still quarantines,
//     shrinks, and re-verifies; only exact localization is not
//     guaranteed.
var harmlessPersistent = map[fault.Strategy]bool{fault.ViewLie: true}

var ambiguousAttribution = map[fault.Strategy]bool{fault.PermuteLie: true}

// TestChaosAutoRecover sweeps every Byzantine strategy × every fault
// site × transient/persistent on a dim-3 cube and asserts the
// supervisor's invariant: Sort with AutoRecover either returns a
// verified-clean result (via retry or quarantine+shrink) or escalates
// with a structured *recovery.ExhaustedError — it never returns an
// unverified slice. Persistent faults must be localized: the
// quarantined node must be the injected fault site (except the
// documented carve-outs above).
func TestChaosAutoRecover(t *testing.T) {
	want := append([]int64(nil), chaosKeys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	for _, st := range fault.AllStrategies() {
		for site := 0; site < 8; site++ {
			for _, persistent := range []bool{false, true} {
				variant := "transient"
				if persistent {
					variant = "persistent"
				}
				st, site, persistent := st, site, persistent
				t.Run(fmt.Sprintf("%v/site%d/%s", st, site, variant), func(t *testing.T) {
					t.Parallel()
					out, stats, err := Sort(chaosKeys, Options{
						Dim:         3,
						RecvTimeout: 150 * time.Millisecond,
						AutoRecover: true,
						MaxAttempts: 6,
						Sleep:       func(time.Duration) {},
						Seed:        1,
						Inject:      chaosInjector(st, site, persistent),
					})
					if err != nil {
						// The only acceptable failure is a structured
						// escalation carrying the attempt history.
						var ex *recovery.ExhaustedError
						if !errors.As(err, &ex) {
							t.Fatalf("unstructured error: %v", err)
						}
						if len(ex.Attempts) == 0 {
							t.Fatalf("ExhaustedError without history: %v", err)
						}
						t.Fatalf("recovery exhausted (history: %d attempts, quarantined %v): %v",
							len(ex.Attempts), ex.Quarantined, err)
					}
					if len(out) != len(want) {
						t.Fatalf("result length %d, want %d", len(out), len(want))
					}
					for i := range want {
						if out[i] != want[i] {
							t.Fatalf("result[%d] = %d, want %d (full: %v)", i, out[i], want[i], out)
						}
					}
					rec := stats.Recovery
					if rec == nil {
						t.Fatal("AutoRecover success without recovery report")
					}
					if persistent {
						// Recovery must have engaged (attempt 0 faulted)
						// and localized the culprit.
						if stats.Attempts < 2 {
							if !harmlessPersistent[st] {
								t.Fatalf("persistent fault cleared in %d attempt(s)?", stats.Attempts)
							}
							// Verified correct despite the fault (the
							// result was already checked above); there
							// is nothing to localize.
							return
						}
						if ambiguousAttribution[st] {
							if len(rec.Quarantined) == 0 {
								t.Fatalf("recovery engaged but quarantined nobody (attempts: %d)", stats.Attempts)
							}
							if rec.FinalDim != 3-len(rec.Quarantined) {
								t.Fatalf("FinalDim = %d after %d quarantine(s)", rec.FinalDim, len(rec.Quarantined))
							}
							if stats.Nodes != 1<<uint(rec.FinalDim) || stats.Nodes*stats.BlockLen != len(chaosKeys) {
								t.Fatalf("degraded geometry %d×%d for dim %d", stats.Nodes, stats.BlockLen, rec.FinalDim)
							}
						} else {
							if len(rec.Quarantined) != 1 || rec.Quarantined[0] != site {
								t.Fatalf("quarantined %v, want [%d] (attempts: %d)",
									rec.Quarantined, site, stats.Attempts)
							}
							if rec.FinalDim != 2 {
								t.Fatalf("FinalDim = %d after one quarantine", rec.FinalDim)
							}
							if stats.Nodes != 4 || stats.BlockLen != 4 {
								t.Fatalf("degraded geometry %d×%d, want 4×4", stats.Nodes, stats.BlockLen)
							}
						}
					} else {
						if len(rec.Quarantined) != 0 {
							t.Fatalf("transient fault quarantined %v", rec.Quarantined)
						}
						if stats.Attempts > 2 {
							t.Fatalf("transient fault took %d attempts", stats.Attempts)
						}
					}
					if stats.Attempts > 1 && rec.WastedCost <= 0 {
						t.Fatalf("recovery engaged but WastedCost = %d", rec.WastedCost)
					}
				})
			}
		}
	}
}

// TestInjectedJobEvidenceRepeats pins that exit-bounded absence makes a
// faulty job's evidence a function of the node programs alone: repeated
// runs of one injected job deliver the same set of ERROR signals on
// every attempt and take the same number of attempts. The receive
// timeout is an hour, so an absence that waited for the timer would
// trip the watchdog instead.
func TestInjectedJobEvidenceRepeats(t *testing.T) {
	const runs = 10
	cases := []struct {
		st         fault.Strategy
		site       int
		persistent bool
	}{
		{fault.KeyLie, 2, true},
		{fault.SplitLie, 5, false},
		{fault.WrongCompare, 6, true},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%v/site%d", c.st, c.site), func(t *testing.T) {
			var first []string
			for i := 0; i < runs; i++ {
				got := make(chan []string, 1)
				go func() {
					_, stats, err := Sort(chaosKeys, Options{
						Dim:         3,
						RecvTimeout: time.Hour,
						AutoRecover: true,
						MaxAttempts: 6,
						Sleep:       func(time.Duration) {},
						Seed:        1,
						Inject:      chaosInjector(c.st, c.site, c.persistent),
					})
					if err != nil {
						t.Errorf("run %d: %v", i, err)
						got <- nil
						return
					}
					got <- evidence(stats.Recovery)
				}()
				var ev []string
				select {
				case ev = <-got:
				case <-time.After(30 * time.Second):
					t.Fatalf("run %d still running after 30s: absence waited for the receive timeout", i)
				}
				if ev == nil {
					return
				}
				if i == 0 {
					first = ev
					if len(first) < 2 {
						t.Fatalf("fault was never detected: %v", first)
					}
					continue
				}
				if fmt.Sprint(ev) != fmt.Sprint(first) {
					t.Fatalf("run %d evidence differs:\n first: %v\n   now: %v", i, first, ev)
				}
			}
		})
	}
}

// evidence renders a supervision as one line per attempt: its index,
// its outcome, and the sorted set of ERROR signals the host drained
// (drain order follows goroutine timing; the set must not).
func evidence(rep *recovery.Report) []string {
	var out []string
	for _, a := range rep.Attempts {
		errs := make([]string, len(a.HostErrors))
		for i, he := range a.HostErrors {
			errs[i] = fmt.Sprintf("%+v", he)
		}
		sort.Strings(errs)
		out = append(out, fmt.Sprintf("attempt %d verified=%v dim=%d: %v", a.Index, a.Verified, a.Dim, errs))
	}
	return out
}

// TestChaosNoFault: the supervisor adds no overhead to clean runs.
func TestChaosNoFault(t *testing.T) {
	out, stats, err := Sort(chaosKeys, Options{
		Dim:         3,
		AutoRecover: true,
		Sleep:       func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !IsSorted(out, Options{}) {
		t.Fatalf("unsorted: %v", out)
	}
	if stats.Attempts != 1 || stats.Recovery.WastedCost != 0 || stats.Recovery.TotalBackoff != 0 {
		t.Fatalf("clean run stats = %+v", stats)
	}
}
