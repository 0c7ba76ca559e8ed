package server

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/reliablesort"
)

// testConfig is a fast simnet-backed server configuration: no real
// backoff sleeps, short absence timeouts.
func testConfig() Config {
	return Config{
		Concurrency: 4,
		QueueDepth:  64,
		// Short absence timeout: honest-path receives are microseconds
		// in-process, and every fault-stricken attempt drains for ~one
		// timeout before the next attempt starts.
		RecvTimeout: 500 * time.Millisecond,
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
	// AutoRecover with spares should pull most injected jobs through to
	// a verified result; all honest jobs must verify.
	if verified < 6 {
		t.Errorf("only %d/%d jobs verified", verified, len(injections)*2)
	}
	st := s.Stats()
	if st.Verified != int64(verified) {
		t.Errorf("fleet counter says %d verified, client saw %d", st.Verified, verified)
	}
	// Fault-stricken attempts quarantine their networks instead of
	// recycling them.
	if s.pool.Stats().Discarded == 0 {
		t.Error("chaos run never quarantined a pooled network")
	}
}

// TestServerFaultRecoveryIsProtocolBounded pins exit-bounded absence
// through the pool: with a one-hour receive timeout, a job whose node
// lies on every attempt still returns verified at once. Each accusing
// node's exit reaches its blocked peers through the lease's
// WorkerControl forwarding; without it they would wait out the timer.
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

// TestServerFailStopWithoutRecovery pins the DisableRecovery path: a
// persistent fault yields a structured *reliablesort.FaultError, not a
// wrong result.
func TestServerFailStopWithoutRecovery(t *testing.T) {
	cfg := testConfig()
	cfg.DisableRecovery = true
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
	if s.Stats().Faulted != 1 {
		t.Errorf("fault counter: %+v", s.Stats())
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
// through a server leave no goroutines behind once Close drains it.
func TestServerDrainsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(testConfig())
	keys := []int64{9, 1, 8, 2, 7, 3, 6, 4}
	for i := 0; i < 6; i++ {
		if _, err := s.Submit(Request{Keys: keys, Dim: 2}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before+2 {
		t.Errorf("goroutine leak: %d before, %d after Close", before, n)
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

// TestPoolQuarantineOnUnclean pins the health policy: an unclean
// release closes the network instead of recycling it.
func TestPoolQuarantineOnUnclean(t *testing.T) {
	p := NewPool(nil, 4, obs.NewRegistry())
	cfg := reliablesort.NetConfig{Dim: 2, RecvTimeout: time.Second}
	nw, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw.(interface{ Release(bool) }).Release(false)
	if got := p.Stats(); got.Idle != 0 {
		t.Errorf("unclean release was pooled: %+v", got)
	}
	nw2, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw2.(interface{ Release(bool) }).Release(true)
	if got := p.Stats(); got.Idle != 1 {
		t.Errorf("clean release not pooled: %+v", got)
	}
	// Clean reuse path: next Get of the same geometry takes the warm one.
	nw3, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Stats(); got.Reused != 1 {
		t.Errorf("warm network not reused: %+v", got)
	}
	nw3.(interface{ Release(bool) }).Release(true)
	p.Close()
	if got := p.Stats(); got.Idle != 0 {
		t.Errorf("Close left idle networks: %+v", got)
	}
}
