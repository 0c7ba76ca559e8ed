// Command sortload drives a running sortserver with a seeded,
// mixed-tenant workload over the streaming wire protocol and reports
// what the paper promises to preserve under load: verified-sorts/sec,
// latency percentiles, and — the number that must stay zero — silently
// wrong results. Every response is re-verified client side against a
// local reference sort, so a lying server cannot hide behind its own
// verifier.
//
//	sortload -addr localhost:9198 -jobs 200 -conc 8
//	sortload -addr localhost:9198 -fault.rate 0.2 -stats http://localhost:9199/stats -json bench.json
//
// The run is deterministic given -seed: job sizes, tenants, key
// values, and which jobs carry injected faults (requires the server to
// run with -chaos) all derive from it. Exit status is nonzero if any
// job was silently wrong or any connection failed mid-protocol.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flaglist"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sortload:", err)
		os.Exit(1)
	}
}

// Report is the JSON artifact: the benchmark contract of the service.
type Report struct {
	Jobs           int     `json:"jobs"`
	Verified       int64   `json:"verified"`
	FaultRejected  int64   `json:"fault_rejected"`
	Overloaded     int64   `json:"overloaded"`
	OtherErrors    int64   `json:"other_errors"`
	SilentWrong    int64   `json:"silent_wrong"`
	Injected       int64   `json:"injected"`
	ElapsedSec     float64 `json:"elapsed_sec"`
	VerifiedPerSec float64 `json:"verified_per_sec"`
	// HonestLatency and InjectedLatency split latency by job class: an
	// injected job pays detection, backoff and re-attempts, so one
	// percentile over both classes would describe neither.
	HonestLatency   Latency `json:"honest_latency"`
	InjectedLatency Latency `json:"injected_latency"`
	// PoolBuilt/PoolReused come from the server's /stats when -stats is
	// given: reuse ≫ built is the pooling win made visible.
	PoolBuilt  int64            `json:"pool_built,omitempty"`
	PoolReused int64            `json:"pool_reused,omitempty"`
	Tenants    map[string]int64 `json:"jobs_per_tenant"`
}

// Latency summarizes one job class's verified jobs.
type Latency struct {
	Verified int64   `json:"verified"`
	MsP50    float64 `json:"ms_p50"`
	MsP99    float64 `json:"ms_p99"`
}

// latencyOf summarizes sorted latencies in milliseconds.
func latencyOf(sorted []float64) Latency {
	return Latency{
		Verified: int64(len(sorted)),
		MsP50:    percentile(sorted, 0.50),
		MsP99:    percentile(sorted, 0.99),
	}
}

// jobPlan is one deterministic unit of workload.
type jobPlan struct {
	tenant string
	keys   []int64
	desc   bool
	inject *server.ChaosSpec
}

// planJob derives job i's workload from the run seed alone. A fault
// lands on a node in [0, nodes): the 2^dim nodes of the job's cube, or,
// when the server chooses the dimension, the 4 that every cube it
// picks for 4 or more keys has.
func planJob(seed int64, i int, tenants []string, sizes []int, faultRate float64, nodes int) jobPlan {
	rng := rand.New(rand.NewSource(seed + int64(i)*7919))
	n := sizes[rng.Intn(len(sizes))]
	keys := make([]int64, n)
	for j := range keys {
		keys[j] = rng.Int63n(1_000_000) - 500_000
	}
	p := jobPlan{
		tenant: tenants[rng.Intn(len(tenants))],
		keys:   keys,
		desc:   rng.Intn(4) == 0,
	}
	if rng.Float64() < faultRate {
		switch rng.Intn(3) {
		case 0:
			p.inject = &server.ChaosSpec{Class: "message", Node: rng.Intn(nodes),
				Strategy: "key-lie", Lie: 999999, Transient: rng.Intn(2) == 0}
		case 1:
			p.inject = &server.ChaosSpec{Class: "comparison", Node: rng.Intn(nodes),
				Mode: "cmp-persistent", Rate: 1, Seed: seed + int64(i), Transient: rng.Intn(2) == 0}
		case 2:
			p.inject = &server.ChaosSpec{Class: "memory", Node: rng.Intn(nodes),
				Mode: "mem-flip", Rate: 0.5, Seed: seed + int64(i), Transient: true}
		}
	}
	return p
}

// verify reports whether got is exactly the reference sort of keys.
func verify(keys, got []int64, desc bool) bool {
	if len(got) != len(keys) {
		return false
	}
	want := append([]int64(nil), keys...)
	sort.Slice(want, func(i, j int) bool {
		if desc {
			return want[i] > want[j]
		}
		return want[i] < want[j]
	})
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sortload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:9198", "sortserver stream-protocol address")
	jobs := fs.Int("jobs", 100, "total jobs to submit")
	conc := fs.Int("conc", 4, "concurrent connections (jobs in flight)")
	tenantsFlag := fs.String("tenants", "alpha,beta,gamma", "comma-separated tenant names to mix")
	sizesFlag := fs.String("sizes", "16,64,256,1024", "comma-separated job sizes (keys)")
	faultRate := fs.Float64("fault.rate", 0, "fraction of jobs carrying an injected fault (server needs -chaos)")
	seed := fs.Int64("seed", 1, "workload seed")
	dim := fs.Int("dim", 2, "cube dimension per job (0 = server auto)")
	statsURL := fs.String("stats", "", "sortserver /stats URL to sample pool counters after the run")
	jsonPath := fs.String("json", "", "write the report JSON here (default stdout only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	nodes := 4
	if *dim > 0 {
		nodes = 1 << uint(*dim)
	}
	tenants := strings.Split(*tenantsFlag, ",")
	sizes, err := flaglist.Parse[int](*sizesFlag)
	if err != nil {
		return fmt.Errorf("-sizes: %w", err)
	}
	for _, n := range sizes {
		if n <= 0 {
			return fmt.Errorf("-sizes: size %d is not positive", n)
		}
	}

	var (
		verified, faultRejected, overloaded, otherErrors atomic.Int64
		silentWrong, injected                            atomic.Int64
		next                                             atomic.Int64
		mu                                               sync.Mutex
		latencies                                        [2][]float64 // honest, injected
		perTenant                                        = make(map[string]int64)
	)
	start := time.Now()
	var wg sync.WaitGroup
	connErrs := make(chan error, *conc)
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := server.DialStream(*addr)
			if err != nil {
				connErrs <- err
				return
			}
			defer c.Close()
			for {
				i := int(next.Add(1)) - 1
				if i >= *jobs {
					return
				}
				p := planJob(*seed, i, tenants, sizes, *faultRate, nodes)
				class := 0
				if p.inject != nil {
					injected.Add(1)
					class = 1
				}
				t0 := time.Now()
				resp, eb, err := c.Do(server.Request{
					Tenant: p.tenant, Keys: p.keys, Descending: p.desc, Dim: *dim, Inject: p.inject,
				})
				lat := time.Since(t0).Seconds() * 1000
				mu.Lock()
				perTenant[p.tenant]++
				mu.Unlock()
				if err != nil {
					connErrs <- fmt.Errorf("job %d: %w", i, err)
					return
				}
				if eb != nil {
					switch eb.Error {
					case "fault_detected", "recovery_exhausted":
						faultRejected.Add(1)
					case "overloaded":
						overloaded.Add(1)
					default:
						otherErrors.Add(1)
						fmt.Fprintf(stderr, "sortload: job %d: %s: %s\n", i, eb.Error, eb.Detail)
					}
					continue
				}
				if !verify(p.keys, resp.Sorted, p.desc) {
					silentWrong.Add(1)
					fmt.Fprintf(stderr, "sortload: job %d: SILENT WRONG RESULT (tenant %s, %d keys)\n",
						i, p.tenant, len(p.keys))
					continue
				}
				verified.Add(1)
				mu.Lock()
				latencies[class] = append(latencies[class], lat)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(connErrs)
	elapsed := time.Since(start).Seconds()
	var connErr error
	for err := range connErrs {
		fmt.Fprintln(stderr, "sortload:", err)
		connErr = err
	}

	for _, l := range latencies {
		sort.Float64s(l)
	}
	rep := Report{
		Jobs:            *jobs,
		Verified:        verified.Load(),
		FaultRejected:   faultRejected.Load(),
		Overloaded:      overloaded.Load(),
		OtherErrors:     otherErrors.Load(),
		SilentWrong:     silentWrong.Load(),
		Injected:        injected.Load(),
		ElapsedSec:      elapsed,
		VerifiedPerSec:  float64(verified.Load()) / elapsed,
		HonestLatency:   latencyOf(latencies[0]),
		InjectedLatency: latencyOf(latencies[1]),
		Tenants:         perTenant,
	}
	if *statsURL != "" {
		if resp, err := http.Get(*statsURL); err == nil {
			var st server.ServerStats
			if json.NewDecoder(resp.Body).Decode(&st) == nil {
				rep.PoolBuilt = st.Pool.Built
				rep.PoolReused = st.Pool.Reused
			}
			resp.Body.Close()
		} else {
			fmt.Fprintf(stderr, "sortload: stats fetch: %v\n", err)
		}
	}

	out, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(out))
	if *jsonPath != "" {
		if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
			return err
		}
	}
	if rep.SilentWrong > 0 {
		return fmt.Errorf("%d SILENT WRONG results — the one number that must be zero", rep.SilentWrong)
	}
	if connErr != nil {
		return fmt.Errorf("connection failures: %w", connErr)
	}
	return nil
}
