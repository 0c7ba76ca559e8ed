package fault

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/blocksort"
)

// InjectBlockFT runs the fault-tolerant block sort with one Byzantine
// processor per the spec and classifies the outcome — the block-scaled
// counterpart of InjectSFT, validating the paper's claim that "each of
// the predicates Φ scales by m" without losing coverage.
func InjectBlockFT(dim int, blocks [][]int64, spec Spec, timeout time.Duration) (Result, error) {
	if err := spec.Validate(1 << uint(dim)); err != nil {
		return Result{}, err
	}
	o := blocksort.Options{SkipChecks: true, Tamper: spec.Tamper()}
	res := Result{Spec: spec, Class: spec.Strategy.Class(), Label: spec.Strategy.String()}
	return injectBlockFTWith(dim, blocks, spec.Node, o, timeout, res)
}

// CoverageBlockFT sweeps the given strategies over every node against
// the fault-tolerant block sort, in (strategy, node) order.
func CoverageBlockFT(dim int, blocks [][]int64, strategies []Strategy, lie int64, timeout time.Duration) ([]Result, error) {
	n := 1 << uint(dim)
	type job struct{ strat, node int }
	var jobs []job
	for si := range strategies {
		for id := 0; id < n; id++ {
			jobs = append(jobs, job{si, id})
		}
	}
	out := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, 8)
	var wg sync.WaitGroup
	for i, jb := range jobs {
		wg.Add(1)
		go func(i int, jb job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			spec := Spec{Node: jb.node, Strategy: strategies[jb.strat], ActivateStage: 1, LieValue: lie}
			r, err := InjectBlockFT(dim, blocks, spec, timeout)
			if err != nil {
				errs[i] = fmt.Errorf("fault: block coverage %v node %d: %w", spec.Strategy, jb.node, err)
				return
			}
			out[i] = r
		}(i, jb)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
