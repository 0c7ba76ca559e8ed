package reliablesort

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/wire"
)

// TestConcurrentSortIsolation is the multi-tenant audit for Sort: N
// concurrent calls with mixed dimensions and directions, one of them
// fault-injected, each with its own Observer and Flight. Run under
// -race this shakes out shared mutable state; the assertions pin that
// per-job observability does not bleed — the faulty job's accusations
// and recovery telemetry land in its observer and nobody else's, and
// every job's traffic counters match its own Stats.
func TestConcurrentSortIsolation(t *testing.T) {
	const jobs = 8
	const faultyJob = 3
	const faultSite = 1

	type result struct {
		keys   []int64
		out    []int64
		stats  Stats
		err    error
		o      *obs.Observer
		flight *forensic.Flight
		desc   bool
	}
	results := make([]result, jobs)

	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		n := 16 + rng.Intn(48)
		keys := make([]int64, n)
		for j := range keys {
			keys[j] = rng.Int63n(100000) - 50000
		}
		r := &results[i]
		r.keys = keys
		r.o = obs.New(obs.NewRegistry(), 0)
		r.flight = forensic.New(0)
		r.desc = i%3 == 0
		opts := Options{
			Descending:  r.desc,
			Dim:         2 + i%2,
			MaxAttempts: 6,
			Spares:      1,
			Seed:        int64(i + 1),
			Sleep:       func(time.Duration) {},
			Obs:         r.o,
			Flight:      r.flight,
		}
		if i == faultyJob {
			opts.Inject = chaosInjector(fault.KeyLie, faultSite, true)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.out, r.stats, r.err = Sort(keys, opts)
		}()
	}
	wg.Wait()

	for i := range results {
		r := &results[i]
		if r.err != nil {
			t.Fatalf("job %d: %v", i, r.err)
		}
		want := append([]int64(nil), r.keys...)
		sort.Slice(want, func(a, b int) bool {
			if r.desc {
				return want[a] > want[b]
			}
			return want[a] < want[b]
		})
		for j := range want {
			if r.out[j] != want[j] {
				t.Fatalf("job %d: wrong key at %d", i, j)
			}
		}

		// Traffic isolation: the job's own observer counted exactly the
		// traffic its Stats reports for the successful attempt — plus
		// whatever its own failed attempts cost — never another job's.
		var obsMsgs int64
		for _, c := range r.o.M.MsgsTotal {
			obsMsgs += c.Value()
		}
		if obsMsgs < r.stats.Msgs {
			t.Errorf("job %d: observer saw %d msgs, stats report %d", i, obsMsgs, r.stats.Msgs)
		}
		if i != faultyJob && obsMsgs != r.stats.Msgs {
			t.Errorf("job %d (honest): observer saw %d msgs, stats report %d — cross-job bleed?",
				i, obsMsgs, r.stats.Msgs)
		}

		// Accusation isolation: only the faulty job's observer and
		// flight carry accusations, and only its recovery report
		// quarantines anyone. (Exact localization of the suspect is
		// chaos_test's concern; here the property is that the evidence
		// lands in the right job's telemetry.)
		acc := r.o.M.Accusations.Value()
		var accused []int
		for _, rep := range r.flight.Reports() {
			if rep.Accuser != wire.HostID && rep.Accused >= 0 {
				accused = append(accused, int(rep.Accused))
			}
		}
		if i == faultyJob {
			if acc == 0 || len(accused) == 0 {
				t.Errorf("faulty job: no accusations recorded (counter %d, flight %d)", acc, len(accused))
			}
			if r.stats.Recovery == nil || len(r.stats.Recovery.Quarantined()) == 0 {
				t.Errorf("faulty job: persistent fault recovered without quarantine: %+v", r.stats.Recovery)
			} else if q := r.stats.Recovery.Quarantined()[0]; q != faultSite {
				t.Errorf("faulty job: quarantined node %d, fault was at %d", q, faultSite)
			}
			if r.stats.Attempts < 2 {
				t.Errorf("faulty job: cleared in %d attempt(s)?", r.stats.Attempts)
			}
			if r.o.M.RecoveryRetries.Value() == 0 {
				t.Error("faulty job: recovery retries not recorded in its own observer")
			}
			if len(r.flight.Reports()) == 0 {
				t.Error("faulty job: no forensic report")
			}
		} else {
			if acc != 0 || len(accused) != 0 {
				t.Errorf("honest job %d: %d accusations bled into its observer (flight: %v)",
					i, acc, accused)
			}
			if r.o.M.RecoveryRetries.Value() != 0 {
				t.Errorf("honest job %d: foreign recovery retries in its observer", i)
			}
			if n := len(r.flight.Reports()); n != 0 {
				t.Errorf("honest job %d: %d foreign forensic reports", i, n)
			}
		}
	}
}

// TestSortNeverMutatesInput is the aliasing property test: across
// seeds, directions, and faulty/clean runs — including quarantine
// re-runs that restart from the host-held checkpoint — the caller's
// keys slice stays bit-identical.
func TestSortNeverMutatesInput(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			keys := make([]int64, 16+rng.Intn(32))
			for j := range keys {
				keys[j] = rng.Int63n(10000) - 5000
			}
			snapshot := append([]int64(nil), keys...)

			desc := seed%2 == 1
			// A transient memory-corruption fault at node 2 forces the
			// detect → retry-from-checkpoint path: the attempt most
			// likely to re-read (or worse, re-write) caller memory.
			inject := fault.Follow(fault.Set{{Mem: &fault.MemSpec{Node: 2, Mode: fault.MemStuck, Rate: 1,
				Seed: seed, ActivateStage: 1, StuckValue: -99}}}, false)
			out, stats, err := Sort(keys, Options{
				Descending:  desc,
				Dim:         2,
				MaxAttempts: 6,
				Sleep:       func(time.Duration) {},
				Seed:        seed + 1,
				Inject:      inject,
			})
			if err != nil {
				t.Fatalf("faulty run did not recover: %v", err)
			}
			if stats.Attempts < 2 {
				t.Fatalf("transient memory fault never forced a retry (attempts: %d)", stats.Attempts)
			}
			want := slices.Clone(snapshot)
			slices.Sort(want)
			if desc {
				slices.Reverse(want)
			}
			if !slices.Equal(out, want) {
				t.Fatalf("output %v, want %v", out, want)
			}
			for j := range snapshot {
				if keys[j] != snapshot[j] {
					t.Fatalf("caller's keys[%d] mutated: %d -> %d", j, snapshot[j], keys[j])
				}
			}
		})
	}
}
