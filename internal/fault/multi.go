package fault

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// MultiResult is the outcome of a run with several simultaneous
// Byzantine processors.
type MultiResult struct {
	Specs   []Spec
	Verdict Verdict
}

// InjectSFTMulti runs S_FT with every listed fault active at once.
// Theorem 3 guarantees detection for up to log₂N − 1 faults provided
// the per-subcube bounds of Lemma 6 hold; the sweep in CoveragePairs
// maps where independent (non-colluding) fault pairs actually land.
func InjectSFTMulti(dim int, keys []int64, specs []Spec, timeout time.Duration) (MultiResult, error) {
	n := 1 << uint(dim)
	opts := make([]core.Options, n)
	for _, s := range specs {
		if err := s.Validate(n); err != nil {
			return MultiResult{}, err
		}
		if opts[s.Node].Tamper != nil {
			return MultiResult{}, fmt.Errorf("fault: node %d appears twice", s.Node)
		}
		opts[s.Node] = Case{Msg: &s}.Options(n)[s.Node]
	}
	r, err := run(dim, keys, 1, opts, timeout)
	if err != nil {
		return MultiResult{}, err
	}
	return MultiResult{Specs: specs, Verdict: r.Verdict}, nil
}

// CoveragePairs sweeps every unordered pair of distinct nodes as
// simultaneous, independently lying Byzantine processors and returns
// one result per pair. n−1 = dim−... for dim ≥ 2 a pair is within the
// paper's tolerance bound when dim ≥ 3.
func CoveragePairs(dim int, keys []int64, strategy Strategy, lie int64, timeout time.Duration) ([]MultiResult, error) {
	n := 1 << uint(dim)
	type pair struct{ a, b int }
	var pairs []pair
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			pairs = append(pairs, pair{a, b})
		}
	}
	out := make([]MultiResult, len(pairs))
	errs := make([]error, len(pairs))
	sem := make(chan struct{}, 8)
	var wg sync.WaitGroup
	for i, p := range pairs {
		wg.Add(1)
		go func(i int, p pair) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			specs := []Spec{
				{Node: p.a, Strategy: strategy, ActivateStage: 1, LieValue: lie},
				{Node: p.b, Strategy: strategy, ActivateStage: 1, LieValue: lie + 1},
			}
			r, err := InjectSFTMulti(dim, keys, specs, timeout)
			if err != nil {
				errs[i] = fmt.Errorf("fault: pair (%d,%d): %w", p.a, p.b, err)
				return
			}
			out[i] = r
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SummarizeMulti tallies multi-fault verdicts.
func SummarizeMulti(results []MultiResult) Summary {
	var s Summary
	for _, r := range results {
		s.Total++
		switch r.Verdict {
		case Detected:
			s.Detected++
		case CorrectDespiteFault:
			s.CorrectDespiteFault++
		case SilentWrong:
			s.SilentWrong++
		}
	}
	return s
}
