package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/server"
)

// workload is one traffic mix: who calls, with what jobs, against which
// absence timeout.
type workload struct {
	name string
	// conns is the number of closed-loop connections, each a caller
	// waiting for its reply; capped at the machine's CPU count.
	conns int
	// sizes are the job sizes in keys; job i has sizes[i%len(sizes)].
	sizes []int
	// injectEvery > 0 puts one fault into every injectEvery-th job.
	injectEvery int
	// recvTimeout is the server's absence timeout.
	recvTimeout time.Duration
	// minInjected keeps the timed phase going until this many injected
	// jobs have completed, so the injected p90 has ten samples beyond it.
	minInjected int
	// setSize is the number of generated jobs the run cycles through; a
	// multiple of the period of the mix of sizes and faults.
	setSize int
	// warmJobs is the number of honest jobs in the untimed warm-up.
	warmJobs int
	// maxRate bounds the jobs per second a run can reach; it sizes the
	// latency storage allocated before the timed phase.
	maxRate float64
}

var workloads = []workload{
	{
		name: "small", conns: 2, sizes: []int{16, 64, 256, 1024},
		recvTimeout: 5 * time.Second, setSize: 256, warmJobs: 1024, maxRate: 10000,
	},
	{
		name: "large", conns: 1, sizes: []int{1 << 15, 1 << 16, 1 << 17},
		recvTimeout: 5 * time.Second, setSize: 12, warmJobs: 3, maxRate: 50,
	},
	{
		name: "faulty", conns: 2, sizes: []int{16, 64, 256, 1024}, injectEvery: 5,
		recvTimeout: 250 * time.Millisecond, minInjected: 100, setSize: 120, warmJobs: 1024, maxRate: 500,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want small, large or faulty)", name)
}

var tenants = []string{"alpha", "beta", "gamma"}

// job is one generated request and its reference output.
type job struct {
	idx    int
	tenant string
	keys   []int64
	desc   bool
	inject *server.ChaosSpec
	want   []int64
}

func (j *job) request() server.Request {
	return server.Request{Tenant: j.tenant, Keys: j.keys, Descending: j.desc, Inject: j.inject}
}

func (j *job) String() string {
	return fmt.Sprintf("set job %d (tenant %s, %d keys)", j.idx, j.tenant, len(j.keys))
}

// planJob derives set job i from the seed the way cmd/sortload does:
// key values, tenant, 25% descending, and the seed of a comparison or
// memory fault. Size, whether a fault is injected, and the fault's
// class, persistence and node are stratified by i instead of drawn, so
// that a seed changes the data and not the mix of the workload: the
// recovery path a fault takes depends on its node.
func planJob(w workload, seed int64, i int) job {
	rng := rand.New(rand.NewSource(seed + int64(i)*7919))
	keys := make([]int64, w.sizes[i%len(w.sizes)])
	for k := range keys {
		keys[k] = rng.Int63n(1_000_000) - 500_000
	}
	j := job{idx: i, tenant: tenants[rng.Intn(len(tenants))], keys: keys, desc: rng.Intn(4) == 0}
	if w.injectEvery > 0 && i%w.injectEvery == 0 {
		k := i / w.injectEvery
		node := (k / 6) % 4
		transient := (k/3)%2 == 0
		switch k % 3 {
		case 0:
			j.inject = &server.ChaosSpec{Class: "message", Node: node,
				Strategy: "key-lie", Lie: 999999, Transient: transient}
		case 1:
			j.inject = &server.ChaosSpec{Class: "comparison", Node: node,
				Mode: "cmp-persistent", Rate: 1, Seed: seed + int64(i), Transient: transient}
		case 2:
			j.inject = &server.ChaosSpec{Class: "memory", Node: node,
				Mode: "mem-flip", Rate: 0.5, Seed: seed + int64(i), Transient: true}
		}
	}
	j.want = slices.Clone(keys)
	slices.Sort(j.want)
	if j.desc {
		slices.Reverse(j.want)
	}
	return j
}

// jobSet generates the workload's cycled job set.
func jobSet(w workload, seed int64) []job {
	set := make([]job, w.setSize)
	for i := range set {
		set[i] = planJob(w, seed, i)
	}
	return set
}

// paddedPair rebuilds the padded ascending input and output that the
// server hands to checker.Verify for a job on a cube of nodes × blockLen
// keys: descending jobs are negated, and +inf sentinels fill the cube.
func paddedPair(j *job, nodes, blockLen int, in, out []int64) ([]int64, []int64) {
	in, out = in[:0], out[:0]
	for _, k := range j.keys {
		if j.desc {
			k = -k
		}
		in = append(in, k)
	}
	for _, k := range j.want {
		if j.desc {
			k = -k
		}
		out = append(out, k)
	}
	for len(in) < nodes*blockLen {
		in = append(in, math.MaxInt64)
		out = append(out, math.MaxInt64)
	}
	return in, out
}
