package server

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/recovery"
	"repro/internal/reliablesort"
	"repro/internal/tcpnet"
	"repro/internal/transport"
)

// testConfig is a fast simnet-backed server configuration: no real
// backoff sleeps. Absence on simnet is decided at quiescence, so no
// receive timer is shortened.
func testConfig() Config {
	return Config{
		Concurrency: 4,
		QueueDepth:  64,
		Spares:      2,
		AllowChaos:  true,
		Sleep:       func(time.Duration) {},
	}
}

// refSorted returns the expected verified output for keys.
func refSorted(keys []int64, descending bool) []int64 {
	out := append([]int64(nil), keys...)
	sort.Slice(out, func(i, j int) bool {
		if descending {
			return out[i] > out[j]
		}
		return out[i] < out[j]
	})
	return out
}

// assertVerified fails the test unless resp.Sorted is exactly the
// reference sort of keys — the client-side silent-wrong detector.
func assertVerified(t *testing.T, keys []int64, resp *Response, descending bool) {
	t.Helper()
	want := refSorted(keys, descending)
	if len(resp.Sorted) != len(want) {
		t.Fatalf("got %d keys, want %d", len(resp.Sorted), len(want))
	}
	for i := range want {
		if resp.Sorted[i] != want[i] {
			t.Fatalf("silent wrong result at %d: got %d want %d", i, resp.Sorted[i], want[i])
		}
	}
}

func TestServerBasicMultiTenant(t *testing.T) {
	s := New(testConfig())
	defer s.Close()

	rng := rand.New(rand.NewSource(1))
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for i := 0; i < 24; i++ {
		keys := make([]int64, 8+rng.Intn(56))
		for j := range keys {
			keys[j] = rng.Int63n(10000) - 5000
		}
		tenant := fmt.Sprintf("t%d", i%3)
		desc := i%2 == 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.Submit(Request{Tenant: tenant, Keys: keys, Descending: desc, Dim: 2})
			if err != nil {
				errs <- err
				return
			}
			want := refSorted(keys, desc)
			for k := range want {
				if resp.Sorted[k] != want[k] {
					errs <- fmt.Errorf("tenant %s: wrong key at %d", tenant, k)
					return
				}
			}
			if resp.Stats.Attempts < 1 || resp.Stats.Nodes != 4 {
				errs <- fmt.Errorf("implausible stats: %+v", resp.Stats)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Pool amortization must be visible: 24 jobs, bounded concurrency,
	// one geometry — far fewer networks built than jobs run.
	ps := s.pool.Stats()
	if ps.Built >= 24 {
		t.Errorf("pool not amortizing: %d networks built for 24 jobs", ps.Built)
	}
	if ps.Reused == 0 {
		t.Error("pool never reused a network")
	}
	st := s.Stats()
	if st.Verified != 24 {
		t.Errorf("verified %d jobs, want 24", st.Verified)
	}
}

// TestServerChaos is the server-level chaos test: message, comparison,
// and memory faults injected into jobs running over pooled networks,
// interleaved with honest jobs. Every job must return either a
// verified (reference-equal) result or a structured error — never a
// silently wrong slice.
func TestServerChaos(t *testing.T) {
	cfg := testConfig()
	cfg.MaxAttempts = 6
	s := New(cfg)
	defer s.Close()

	injections := []*ChaosSpec{
		nil, // honest
		{Class: "message", Node: 1, Strategy: "key-lie", Lie: 999999},
		nil,
		{Class: "comparison", Node: 2, Mode: "cmp-persistent", Rate: 1, Seed: 7},
		{Class: "memory", Node: 3, Mode: "mem-stuck", Rate: 1, Seed: 9, Lie: -42},
		nil,
		{Class: "message", Node: 0, Strategy: "split-lie", Lie: 31337, Transient: true},
		{Class: "comparison", Node: 1, Mode: "cmp-transient", Rate: 1, Seed: 3, Transient: true},
	}
	rng := rand.New(rand.NewSource(2))
	var wg sync.WaitGroup
	type outcome struct {
		idx      int
		verified bool
		err      error
	}
	results := make(chan outcome, len(injections)*2)
	for round := 0; round < 2; round++ {
		for i, inj := range injections {
			keys := make([]int64, 16)
			for j := range keys {
				keys[j] = rng.Int63n(1000)
			}
			idx := round*len(injections) + i
			inj := inj
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := s.Submit(Request{
					Tenant: fmt.Sprintf("chaos%d", idx%2), Keys: keys, Dim: 2, Inject: inj,
				})
				if err != nil {
					// Structured failure is an acceptable outcome — but it
					// must be one of the typed errors, not a mystery.
					var ex interface{ Error() string }
					if !errors.Is(err, reliablesort.ErrFaultDetected) && !errors.As(err, &ex) {
						results <- outcome{idx: idx, err: fmt.Errorf("untyped error: %w", err)}
						return
					}
					results <- outcome{idx: idx, err: err}
					return
				}
				want := refSorted(keys, false)
				for k := range want {
					if resp.Sorted[k] != want[k] {
						results <- outcome{idx: idx, err: fmt.Errorf("SILENT WRONG at %d", k)}
						return
					}
				}
				results <- outcome{idx: idx, verified: true}
			}()
		}
	}
	wg.Wait()
	close(results)
	verified := 0
	for r := range results {
		if r.err != nil {
			// A structured error is allowed; silent wrong is not.
			if se := r.err.Error(); len(se) > 12 && se[:12] == "SILENT WRONG" {
				t.Fatalf("job %d: %v", r.idx, r.err)
			}
			t.Logf("job %d: structured failure: %v", r.idx, r.err)
			continue
		}
		verified++
	}
	// Recovery with spares should pull most injected jobs through to a
	// verified result; all honest jobs must verify.
	if verified < 6 {
		t.Errorf("only %d/%d jobs verified", verified, len(injections)*2)
	}
	st := s.Stats()
	if st.Verified != int64(verified) {
		t.Errorf("fleet counter says %d verified, client saw %d", st.Verified, verified)
	}
	// Fault-stricken attempts' networks are recycled like any other:
	// with concurrency no higher than PoolIdle, none is surplus.
	if ps := s.pool.Stats(); ps.Discarded != 0 {
		t.Errorf("chaos run discarded pooled networks: %+v", ps)
	}
}

// TestServerReusedRecordersIsolateJobs runs honest and injected jobs
// at once on four workers, each reusing one flight recorder across its
// jobs (run it under -race). Every job verifies, only an injected job
// reports accusations and they name its liar, and every job's counters
// reach the fleet registry.
func TestServerReusedRecordersIsolateJobs(t *testing.T) {
	s := New(testConfig())
	defer s.Close()

	const jobs = 24
	rng := rand.New(rand.NewSource(19))
	var wg sync.WaitGroup
	attempts := make([]int, jobs)
	for i := 0; i < jobs; i++ {
		keys := make([]int64, 8+rng.Intn(120))
		for j := range keys {
			keys[j] = rng.Int63n(10000) - 5000
		}
		liar := -1
		var inj *ChaosSpec
		if i%2 == 1 {
			liar = (i / 2) % 4
			inj = &ChaosSpec{Class: "message", Node: liar, Strategy: "key-lie", Lie: 999999, Transient: i%4 == 1}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Submit(Request{Tenant: fmt.Sprintf("t%d", i%3), Keys: keys, Dim: 2, Inject: inj})
			if err != nil {
				t.Errorf("job %d (liar %d): %v", i, liar, err)
				return
			}
			want := refSorted(keys, false)
			if !slices.Equal(resp.Sorted, want) {
				t.Errorf("job %d (liar %d): silently wrong result", i, liar)
			}
			switch acc := resp.Stats.Accused; {
			case liar < 0 && len(acc) != 0:
				t.Errorf("honest job %d reports accusations %v", i, acc)
			case liar >= 0 && !slices.Contains(acc, liar):
				t.Errorf("job %d: Accused %v does not name the liar %d", i, acc, liar)
			}
			attempts[i] = resp.Stats.Attempts
		}(i)
	}
	wg.Wait()

	total := 0
	for _, a := range attempts {
		total += a
	}
	m := s.obs.M
	if got := m.RecoveryAttempts.Value(); got != int64(total) {
		t.Errorf("recovery_attempts_total = %d, jobs report %d attempts", got, total)
	}
	if m.Accusations.Value() == 0 || m.PhiFail[obs.PhiC].Value()+m.PhiFail[obs.PhiF].Value()+m.PhiFail[obs.PhiP].Value() == 0 {
		t.Errorf("injected jobs' accusations or failed Φ checks missing from the fleet registry")
	}
}

// TestServerFaultRecoveryIsProtocolBounded pins absence at quiescence
// through the pool: with a one-hour receive timeout, a job whose node
// lies on every attempt still returns verified at once. Each accusing
// node's exit reaches the census through the WorkerDone the lease
// promotes from its network; without it its blocked peers would wait
// out the timer.
func TestServerFaultRecoveryIsProtocolBounded(t *testing.T) {
	cfg := testConfig()
	cfg.RecvTimeout = time.Hour
	s := New(cfg)
	if err := s.Warm(2, 1); err != nil {
		t.Fatal(err)
	}
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5, 31, -6, 14, 0, 22, -9, 17, 1}
	type reply struct {
		resp *Response
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := s.Submit(Request{Keys: keys, Dim: 2,
			Inject: &ChaosSpec{Class: "message", Node: 1, Strategy: "key-lie", Lie: 999999}})
		done <- reply{resp, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		assertVerified(t, keys, r.resp, false)
		if r.resp.Stats.Attempts < 2 {
			t.Errorf("persistent fault verified in %d attempt(s)", r.resp.Stats.Attempts)
		}
	case <-time.After(30 * time.Second):
		// Leave the server running: Close would wait for the job.
		t.Fatal("job still running after 30s: absence waited for the receive timeout")
	}
	s.Close()
}

// TestServerAccusedOnRecoveredDim6Job pins JobStats.Accused on a
// recovered 64-node job: the failed attempt's evidence must survive a
// verified retry whose honest run emits thousands of journal events,
// and it must name the liar by its physical label.
func TestServerAccusedOnRecoveredDim6Job(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	keys := make([]int64, 256)
	rng := rand.New(rand.NewSource(6))
	for i := range keys {
		keys[i] = rng.Int63n(100000) - 50000
	}
	resp, err := s.Submit(Request{Keys: keys, Dim: 6,
		Inject: &ChaosSpec{Class: "message", Node: 1, Strategy: "key-lie", Lie: 999999, Transient: true}})
	if err != nil {
		t.Fatal(err)
	}
	assertVerified(t, keys, resp, false)
	st := resp.Stats
	if st.Nodes != 64 || st.Attempts != 2 {
		t.Fatalf("nodes %d attempts %d, want 64 nodes and 2 attempts", st.Nodes, st.Attempts)
	}
	if !slices.Contains(st.Accused, 1) {
		t.Errorf("Accused %v does not name the lying node 1", st.Accused)
	}
	for i, a := range st.Accused {
		if a < 0 || a >= 64 {
			t.Errorf("Accused %v holds %d, not a physical label of the 64-node cube", st.Accused, a)
		}
		if i > 0 && st.Accused[i-1] >= a {
			t.Errorf("Accused %v not strictly ascending", st.Accused)
		}
	}
}

// TestAccusedNodesMapsToPhysical pins the label translation: each
// attempt's evidence is in that attempt's logical labels, and Accused
// reports physical ones, deduplicated and ascending.
func TestAccusedNodesMapsToPhysical(t *testing.T) {
	attempts := []recovery.Attempt{
		{Physical: []int{0, 1, 2, 3}, HostErrors: []core.HostError{
			{Node: 0, Accused: 3}, {Node: 2, Accused: -1}, {Node: 1, Accused: 3},
		}},
		// Physical node 3 was replaced by spare 5 at logical slot 3.
		{Physical: []int{0, 1, 2, 5}, HostErrors: []core.HostError{
			{Node: 0, Accused: 3}, {Node: 3, Accused: 2},
		}},
		{Physical: []int{0, 1, 2, 5}, Verified: true},
	}
	if got, want := accusedNodes(attempts), []int{2, 3, 5}; !slices.Equal(got, want) {
		t.Fatalf("accusedNodes = %v, want %v", got, want)
	}
}

// TestServerFailStopWithoutRecovery pins the fail-stop server, a
// one-attempt budget: a persistent fault yields a structured
// *reliablesort.FaultError, not a wrong result, and counts as
// fault-stopped.
func TestServerFailStopWithoutRecovery(t *testing.T) {
	cfg := testConfig()
	cfg.MaxAttempts = 1
	s := New(cfg)
	defer s.Close()

	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5, 31, -6, 14, 0, 22, -9, 17, 1}
	_, err := s.Submit(Request{
		Keys: keys, Dim: 2,
		Inject: &ChaosSpec{Class: "message", Node: 1, Strategy: "key-lie", Lie: 777777},
	})
	if !errors.Is(err, reliablesort.ErrFaultDetected) {
		t.Fatalf("want ErrFaultDetected, got %v", err)
	}
	if st := s.Stats(); st.Faulted != 1 || st.Exhausted != 0 {
		t.Errorf("fault counters: %+v", st)
	}
}

// TestServerCountsExhaustedJobs pins that a job which spends its whole
// attempt budget counts as exhausted, the class both front ends answer
// with, and not as fault-stopped, although the exhaustion unwraps to
// the last attempt's fault.
func TestServerCountsExhaustedJobs(t *testing.T) {
	cfg := testConfig()
	cfg.MaxAttempts = 2
	s := New(cfg)
	defer s.Close()

	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5, 31, -6, 14, 0, 22, -9, 17, 1}
	_, err := s.Submit(Request{
		Keys: keys, Dim: 2,
		Inject: &ChaosSpec{Class: "message", Node: 1, Strategy: "key-lie", Lie: 777777},
	})
	var ex *recovery.ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("want an ExhaustedError, got %v", err)
	}
	if _, eb := classify(err); eb.Error != "recovery_exhausted" {
		t.Fatalf("classified %q, want recovery_exhausted", eb.Error)
	}
	if st := s.Stats(); st.Exhausted != 1 || st.Faulted != 0 {
		t.Errorf("exhausted/faulted = %d/%d, want 1/0", st.Exhausted, st.Faulted)
	}
	if got := s.obs.M.RecoveryAttempts.Value(); got != 2 {
		t.Errorf("recovery_attempts_total = %d, want the exhausted job's 2", got)
	}
}

// TestJournalScrapesDuringSubmits races the fleet journal's readers,
// /debug/journal and /metrics scrapes, against its one producer, the
// job spans concurrent Submits append on four workers (run it under
// -race). The journal ends holding two spans per job.
func TestJournalScrapesDuringSubmits(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const jobs = 32
	done := make(chan struct{})
	var scrapers, ready sync.WaitGroup
	for _, path := range []string{"/debug/journal", "/metrics"} {
		scrapers.Add(1)
		ready.Add(1)
		go func() {
			defer scrapers.Done()
			for first := true; ; first = false {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d", resp.StatusCode)
					}
				}
				if first {
					ready.Done()
				}
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
			}
		}()
	}
	// Submit only once both scrapers are reading, so their reads
	// overlap the spans' appends.
	ready.Wait()
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys := []int64{int64(i), 5, -3, 8, 1, 9, 2, 7}
			if _, err := s.Submit(Request{Tenant: fmt.Sprintf("t%d", i%3), Keys: keys, Dim: 2}); err != nil {
				t.Errorf("job %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(done)
	scrapers.Wait()

	begins, ends := 0, 0
	for _, ev := range s.Journal().Events() {
		switch ev.Kind {
		case obs.EvSpanBegin:
			begins++
		case obs.EvSpanEnd:
			ends++
		}
	}
	if total := s.Journal().Total(); total != 2*jobs || begins != jobs || ends != jobs {
		t.Errorf("journal holds %d events (%d begins, %d ends), want two spans for each of %d jobs", total, begins, ends, jobs)
	}
}

// TestServerOverloadBackpressure pins admission control: with one slow
// worker and a depth-2 queue, a burst must see clean ErrOverloaded
// rejections while every accepted job still completes verified.
func TestServerOverloadBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.Concurrency = 1
	cfg.QueueDepth = 2
	s := New(cfg)
	defer s.Close()

	keys := []int64{5, 3, 8, 1, 9, 2, 7, 4}
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted, rejected := 0, 0
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.Submit(Request{Keys: keys, Dim: 2})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				accepted++
				for k := 1; k < len(resp.Sorted); k++ {
					if resp.Sorted[k-1] > resp.Sorted[k] {
						t.Errorf("accepted job returned unsorted output")
					}
				}
			case errors.Is(err, ErrOverloaded):
				rejected++
			default:
				t.Errorf("unexpected error under load: %v", err)
			}
		}()
	}
	wg.Wait()
	if rejected == 0 {
		t.Error("burst of 16 against depth-2 queue saw no backpressure")
	}
	if accepted == 0 {
		t.Error("every job was rejected")
	}
	if got := s.Stats().Rejected; got != int64(rejected) {
		t.Errorf("rejected counter %d, clients saw %d", got, rejected)
	}
}

// TestServerDrainsGoroutines pins the serve-forever lifecycle: jobs
// through a server leave no goroutines behind once Close drains it,
// the resident node workers of every network its pool built included:
// networks parked at Close, a network recycled after a persistent
// fault struck its attempts, and a network built beyond PoolIdle.
func TestServerDrainsGoroutines(t *testing.T) {
	keys := []int64{9, 1, 8, 2, 7, 3, 6, 4}
	submit := func(t *testing.T, s *Server, inject *ChaosSpec) *Response {
		t.Helper()
		resp, err := s.Submit(Request{Keys: keys, Dim: 2, Inject: inject})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, tc := range []struct {
		name string
		idle int
		jobs func(t *testing.T, s *Server)
	}{
		{"honest", 0, func(t *testing.T, s *Server) {
			for i := 0; i < 6; i++ {
				submit(t, s, nil)
			}
		}},
		{"fault-recycled", 0, func(t *testing.T, s *Server) {
			lie := &ChaosSpec{Class: "message", Node: 1, Strategy: "key-lie", Lie: 999999}
			if resp := submit(t, s, lie); resp.Stats.Attempts < 2 {
				t.Fatalf("persistent fault took %d attempts, want a retry", resp.Stats.Attempts)
			}
			submit(t, s, nil)
			if st := s.Stats().Pool; st.Discarded != 0 || st.Reused == 0 {
				t.Fatalf("fault-stricken attempts' networks not recycled: %+v", st)
			}
		}},
		{"surplus", 1, func(t *testing.T, s *Server) {
			if err := s.Warm(2, 3); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats().Pool; st.Discarded != 2 || st.Idle != 1 {
				t.Fatalf("warming 3 networks with PoolIdle 1: %+v, want 2 discarded and 1 idle", st)
			}
			for i := 0; i < 3; i++ {
				submit(t, s, nil)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg := testConfig()
			cfg.PoolIdle = tc.idle
			s := New(cfg)
			defer s.Close() // on a failed check; Close is idempotent
			tc.jobs(t, s)
			s.Close()
			deadline := time.Now().Add(5 * time.Second)
			n := runtime.NumGoroutine()
			for n > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
				n = runtime.NumGoroutine()
			}
			if n > before {
				t.Errorf("goroutine leak: %d before, %d after Close", before, n)
			}
		})
	}
}

// TestServerValidation pins the admission checks.
func TestServerValidation(t *testing.T) {
	cfg := testConfig()
	cfg.AllowChaos = false
	cfg.MaxKeys = 8
	s := New(cfg)
	defer s.Close()

	cases := []Request{
		{},                          // empty keys
		{Keys: make([]int64, 9)},    // over MaxKeys
		{Keys: []int64{1}, Dim: 99}, // dim out of range
		{Keys: []int64{1}, Inject: &ChaosSpec{Class: "message", Strategy: "key-lie"}}, // chaos disabled
	}
	for i, req := range cases {
		if _, err := s.Submit(req); !errors.Is(err, ErrInvalid) {
			t.Errorf("case %d: want ErrInvalid, got %v", i, err)
		}
	}
	if got := s.Stats().Rejected; got != int64(len(cases)) {
		t.Errorf("rejected counter %d, want %d", got, len(cases))
	}
}

// TestSchedulerWeightedFair pins smooth WRR: tenants weighted 3:1 with
// saturated queues are served in an interleaved 3:1 pattern, not in
// starvation blocks.
func TestSchedulerWeightedFair(t *testing.T) {
	sch := newScheduler(16, map[string]int{"heavy": 3, "light": 1})
	for i := 0; i < 8; i++ {
		if err := sch.submit(&job{tenant: "heavy", done: make(chan jobResult, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := sch.submit(&job{tenant: "light", done: make(chan jobResult, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	for i := 0; i < 8; i++ {
		order = append(order, sch.next().tenant)
	}
	heavy := 0
	for _, tn := range order {
		if tn == "heavy" {
			heavy++
		}
	}
	if heavy != 6 {
		t.Errorf("first 8 picks served heavy %d times, want 6 (3:1): %v", heavy, order)
	}
	// The light tenant must appear within any window of 4 — no
	// starvation block.
	for i := 0; i+4 <= len(order); i++ {
		window := order[i : i+4]
		found := false
		for _, tn := range window {
			if tn == "light" {
				found = true
			}
		}
		if !found {
			t.Errorf("light tenant starved in window %v", window)
		}
	}
	sch.close()
	// Drain the rest; closed-and-empty returns nil.
	for sch.next() != nil {
	}
}

// TestSchedulerCloseDrains pins the shutdown contract: jobs accepted
// before close are still dispensed after it.
func TestSchedulerCloseDrains(t *testing.T) {
	sch := newScheduler(4, nil)
	for i := 0; i < 3; i++ {
		if err := sch.submit(&job{tenant: "t", done: make(chan jobResult, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	sch.close()
	if err := sch.submit(&job{tenant: "t", done: make(chan jobResult, 1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: want ErrClosed, got %v", err)
	}
	for i := 0; i < 3; i++ {
		if sch.next() == nil {
			t.Fatalf("job %d lost at shutdown", i)
		}
	}
	if sch.next() != nil {
		t.Fatal("drained scheduler dispensed a phantom job")
	}
}

// failingReset is a simnet network the pool cannot reset.
type failingReset struct{ transport.Network }

func (failingReset) Reset(*obs.Metrics, *forensic.Flight) error { return errors.New("reset refused") }

// TestPoolIdleGaugeTracksDiscards pins server_pool_networks_idle to
// the idle list when a parked network fails its Reset at checkout and
// is discarded.
func TestPoolIdleGaugeTracksDiscards(t *testing.T) {
	p := NewPool(func(cfg reliablesort.NetConfig) (transport.Network, error) {
		nw, err := reliablesort.NewSimnet(cfg)
		return failingReset{nw}, err
	}, 4, obs.NewRegistry())
	defer p.Close()
	cfg := reliablesort.NetConfig{Dim: 2, RecvTimeout: time.Second}
	if err := p.Warm(cfg, 1); err != nil {
		t.Fatal(err)
	}
	nw, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close() // stops the network's crew at Close
	st := p.Stats()
	if st.Idle != 0 || st.Discarded != 1 || p.idleGauge.Value() != int64(st.Idle) {
		t.Errorf("after a failed Reset: gauge %d, stats %+v; want gauge = idle = 0, 1 discarded", p.idleGauge.Value(), st)
	}
}

// TestPoolRecyclesClosedLeases pins the reuse policy: closing a lease
// puts its network back, once however often it is closed, and the next
// Get of the geometry takes the warm one; closing the pool closes the
// idle networks.
func TestPoolRecyclesClosedLeases(t *testing.T) {
	p := NewPool(nil, 4, obs.NewRegistry())
	cfg := reliablesort.NetConfig{Dim: 2, RecvTimeout: time.Second}
	nw, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw.Close()
	nw.Close()
	if got := p.Stats(); got.Idle != 1 || got.Discarded != 0 {
		t.Errorf("closed lease not pooled once: %+v", got)
	}
	nw2, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Stats(); got.Reused != 1 || got.Built != 1 {
		t.Errorf("warm network not reused: %+v", got)
	}
	nw2.Close()
	p.Close()
	if got := p.Stats(); got.Idle != 0 || got.Discarded != 1 {
		t.Errorf("Close left idle networks: %+v", got)
	}
}

// TestRecycledNetworkMatchesFresh pins the reuse rule on both
// transports. A job struck by a persistent fault (each message
// strategy, comparison mode and memory mode ChaosSpec accepts, at each
// node of a dim-2 cube) leaves its networks to the pool, and the next
// honest job, on the network the faulty job's first attempt ran on,
// returns the same sorted keys, makespan and traffic as on a fresh
// server. With one worker and PoolIdle 1 no network is ever surplus,
// so the pool discards none.
func TestRecycledNetworkMatchesFresh(t *testing.T) {
	keys := []int64{41, -7, 13, 99, 0, -52, 8, 27, 64, -1, 300, 5, -9, 72, 2, 18}
	var faults []ChaosSpec
	for _, st := range fault.AllStrategies() {
		faults = append(faults, ChaosSpec{Class: "message", Strategy: st.String(), Lie: 999999})
	}
	for _, m := range fault.AllCmpModes() {
		faults = append(faults, ChaosSpec{Class: "comparison", Mode: m.String(), Seed: 7})
	}
	for _, m := range fault.AllMemModes() {
		faults = append(faults, ChaosSpec{Class: "memory", Mode: m.String(), Seed: 9, Lie: -42})
	}
	for _, tr := range []struct {
		name   string
		newNet func(reliablesort.NetConfig) (transport.Network, error)
	}{
		{"simnet", nil},
		{"tcpnet", func(cfg reliablesort.NetConfig) (transport.Network, error) {
			return tcpnet.New(tcpnet.Config{Dim: cfg.Dim, Spares: cfg.Spares, RecvTimeout: cfg.RecvTimeout,
				Obs: cfg.Obs, Flight: cfg.Flight})
		}},
	} {
		t.Run(tr.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.NewNetwork, cfg.Concurrency, cfg.PoolIdle = tr.newNet, 1, 1
			honest := func(t *testing.T, s *Server) *Response {
				t.Helper()
				resp, err := s.Submit(Request{Keys: keys, Dim: 2})
				if err != nil {
					t.Fatal(err)
				}
				return resp
			}
			fresh := New(cfg)
			want := honest(t, fresh)
			fresh.Close()

			s := New(cfg)
			defer s.Close()
			for _, f := range faults {
				for node := 0; node < 4; node++ {
					f.Node = node
					name := fmt.Sprintf("%s %s%s at node %d", f.Class, f.Strategy, f.Mode, node)
					if resp, err := s.Submit(Request{Keys: keys, Dim: 2, Inject: &f}); err == nil &&
						!slices.Equal(resp.Sorted, refSorted(keys, false)) {
						t.Fatalf("%s: SILENT WRONG %v", name, resp.Sorted)
					}
					got := honest(t, s)
					if !slices.Equal(got.Sorted, want.Sorted) || got.Stats.Makespan != want.Stats.Makespan ||
						got.Stats.Msgs != want.Stats.Msgs || got.Stats.Bytes != want.Stats.Bytes {
						t.Fatalf("after %s: recycled network sorted %v in %d vticks, %d msgs, %d bytes; a fresh one %v in %d, %d, %d",
							name, got.Sorted, got.Stats.Makespan, got.Stats.Msgs, got.Stats.Bytes,
							want.Sorted, want.Stats.Makespan, want.Stats.Msgs, want.Stats.Bytes)
					}
				}
			}
			if st := s.Stats().Pool; st.Discarded != 0 || st.Reused == 0 {
				t.Errorf("pool after the faults: %+v, want networks reused and none discarded", st)
			}
		})
	}
}
