package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/checker"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
)

// newJobObs builds what the server builds for every job's isolated
// telemetry: an observer on a fresh registry and a flight recorder with
// one ring per node of the job's cube.
func newJobObs(nodes int) (*obs.Observer, *forensic.Flight) {
	o := obs.New(obs.NewRegistry(), 0)
	f := forensic.New(0)
	for i := 0; i < nodes; i++ {
		f.Node(i)
	}
	return o, f
}

// jobObsBytes measures the heap bytes newJobObs allocates. Call it only
// while nothing else runs: it reads the process-wide allocation total.
func jobObsBytes(nodes int) float64 {
	const reps = 8
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for k := 0; k < reps; k++ {
		o, f := newJobObs(nodes)
		runtime.KeepAlive(o)
		runtime.KeepAlive(f)
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-before) / reps
}

// replayed holds per-job means of work replayed outside the server.
type replayed struct {
	jobs       int
	obsSetupNs float64
	obsSetupKB float64
	verifyNs   float64
}

// replay re-runs, once for each set job the phase verified (geoms gives
// the cube it ran on), the per-job observability set-up and the
// server's checker.Verify on the job's padded input and output, timing
// each. The server is idle while it runs.
func replay(set []job, geoms []geom) (replayed, error) {
	var (
		r        replayed
		kbByNode = make(map[int]float64)
		in, out  []int64
		obsNs    int64
		verifyNs int64
		kbSum    float64
	)
	for pos, g := range geoms {
		if g.nodes == 0 {
			continue
		}
		kb, ok := kbByNode[g.nodes]
		if !ok {
			kb = jobObsBytes(g.nodes) / 1024
			kbByNode[g.nodes] = kb
		}
		kbSum += kb

		t0 := time.Now()
		o, f := newJobObs(g.nodes)
		obsNs += int64(time.Since(t0))
		runtime.KeepAlive(o)
		runtime.KeepAlive(f)

		j := &set[pos]
		in, out = paddedPair(j, g.nodes, g.blockLen, in, out)
		t0 = time.Now()
		err := checker.Verify(in, out, true)
		verifyNs += int64(time.Since(t0))
		if err != nil {
			return r, fmt.Errorf("checker replay: %v: %w", j, err)
		}
		r.jobs++
	}
	if r.jobs > 0 {
		r.obsSetupNs = float64(obsNs) / float64(r.jobs)
		r.obsSetupKB = kbSum / float64(r.jobs)
		r.verifyNs = float64(verifyNs) / float64(r.jobs)
	}
	return r, nil
}
