package chaostest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/recovery"
	"repro/internal/reliablesort"
)

// seedMatrix returns the chaos seeds to run: CHAOS_SEEDS is a
// comma-separated list (the CI seed matrix); unset defaults to the
// paper's year.
func seedMatrix(t *testing.T) []int64 {
	raw := os.Getenv("CHAOS_SEEDS")
	if raw == "" {
		return []int64{1989}
	}
	var seeds []int64
	for _, f := range strings.Split(raw, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		s, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEEDS entry %q: %v", f, err)
		}
		seeds = append(seeds, s)
	}
	if len(seeds) == 0 {
		t.Fatal("CHAOS_SEEDS set but empty")
	}
	return seeds
}

// failure is one scenario that violated an invariant.
type failure struct {
	sc  Scenario
	r   Result
	err error
}

// runMatrix supervises scenarios over the transport on a bounded
// worker pool. The pool — not t.Parallel — provides the concurrency:
// scenarios are timer-bound (silence faults ride out RecvTimeout), so
// overlapping them bounds wall time even on a single-CPU runner where
// -parallel defaults to 1.
func runMatrix(t *testing.T, scenarios []Scenario, tr Transport) {
	t.Helper()
	const workers = 8
	var (
		mu       sync.Mutex
		failures []failure
		wg       sync.WaitGroup
	)
	work := make(chan Scenario)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sc := range work {
				r := Run(sc, tr)
				if err := Check(sc, r); err != nil {
					mu.Lock()
					failures = append(failures, failure{sc: sc, r: r, err: err})
					mu.Unlock()
				}
			}
		}()
	}
	for _, sc := range scenarios {
		work <- sc
	}
	close(work)
	wg.Wait()

	if len(failures) == 0 {
		return
	}
	var b strings.Builder
	for _, f := range failures {
		fmt.Fprintf(&b, "%s/%s: %v\n", tr, f.sc.Name(), f.err)
	}
	writeReproducers(t, tr, &b)
	writeForensics(t, tr, failures)
	t.Errorf("%d of %d scenarios violated invariants:\n%s", len(failures), len(scenarios), b.String())
}

// writeReproducers saves the failing scenario names to
// $CHAOS_ARTIFACT_DIR so CI can upload them as a reproducer artifact.
func writeReproducers(t *testing.T, tr Transport, b *strings.Builder) {
	t.Helper()
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos artifact dir: %v", err)
		return
	}
	name := filepath.Join(dir, fmt.Sprintf("chaos-failures-%s-%d.txt", tr, time.Now().UnixNano()))
	if err := os.WriteFile(name, []byte(b.String()), 0o644); err != nil {
		t.Logf("chaos artifact write: %v", err)
		return
	}
	t.Logf("failure reproducers written to %s", name)
}

// writeForensics saves each failing scenario's forensic dumps (the
// accusation chains its flight recorder captured) next to the
// reproducer list, one JSON file per failure, so CI uploads the causal
// evidence alongside the scenario name. Renderable with cmd/forensic.
func writeForensics(t *testing.T, tr Transport, failures []failure) {
	t.Helper()
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos artifact dir: %v", err)
		return
	}
	for i, f := range failures {
		reports := f.r.Flight.Reports()
		if len(reports) == 0 {
			continue
		}
		var b strings.Builder
		b.WriteString("[\n")
		for j, rep := range reports {
			buf, err := rep.JSON()
			if err != nil {
				t.Logf("forensic render %s: %v", f.sc.Name(), err)
				continue
			}
			if j > 0 {
				b.WriteString(",\n")
			}
			b.Write(buf)
		}
		b.WriteString("\n]\n")
		name := filepath.Join(dir, fmt.Sprintf("forensic-%s-%d-%d.json", tr, time.Now().UnixNano(), i))
		if err := os.WriteFile(name, []byte(b.String()), 0o644); err != nil {
			t.Logf("forensic artifact write: %v", err)
			continue
		}
		t.Logf("forensic dump for %s written to %s", f.sc.Name(), name)
	}
}

// TestChaosMatrixSimnet is the main randomized battery: hundreds of
// deterministic scenarios over the in-process simulator.
func TestChaosMatrixSimnet(t *testing.T) {
	count := 160
	if testing.Short() {
		count = 24
	}
	for _, seed := range seedMatrix(t) {
		runMatrix(t, Generate(seed, count), Simnet)
	}
}

// TestChaosMatrixTCP runs a thinner slice of the same generator over
// real loopback sockets: same supervisor, same invariants, real
// transport.
func TestChaosMatrixTCP(t *testing.T) {
	count := 20
	if testing.Short() {
		count = 6
	}
	for _, seed := range seedMatrix(t) {
		runMatrix(t, Generate(seed^0x7cb, count), TCP)
	}
}

// TestSpareKeepsFullDimension is the directed acceptance check: a
// persistent single fault with one spare pooled recovers at full cube
// dimension on both transports.
func TestSpareKeepsFullDimension(t *testing.T) {
	for _, tr := range []Transport{Simnet, TCP} {
		sc := Scenario{
			Seed:        42,
			Dim:         3,
			BlockLen:    2,
			Strategy:    fault.KeyLie,
			Site:        5,
			Persistent:  true,
			Spares:      1,
			MaxAttempts: 6,
		}
		r := Run(sc, tr)
		if r.Err != nil {
			t.Fatalf("%v: %v", tr, r.Err)
		}
		if err := Check(sc, r); err != nil {
			t.Fatalf("%v: %v", tr, err)
		}
		rep := r.Stats.Recovery
		if rep.FinalDim != 3 || r.Stats.Nodes != 8 {
			t.Fatalf("%v: recovered at dim %d with %d nodes, want full dim 3 with 8", tr, rep.FinalDim, r.Stats.Nodes)
		}
		if len(rep.Quarantined) != 1 || rep.Quarantined[0] != 5 {
			t.Fatalf("%v: quarantined %v, want [5]", tr, rep.Quarantined)
		}
		if len(rep.Substitutions) != 1 || rep.Substitutions[0].Spare != 8 || rep.Substitutions[0].Suspect != 5 {
			t.Fatalf("%v: substitutions %v, want spare 8 at suspect 5", tr, rep.Substitutions)
		}
	}
}

// TestComparisonFaultQuarantinedAtSite is the directed acceptance
// check for the comparison class: a persistently lying comparator is
// localized exactly like a Byzantine message strategy, because the
// honest partner's protocol checks name the lying sender.
func TestComparisonFaultQuarantinedAtSite(t *testing.T) {
	sc := Scenario{
		Seed:        42,
		Dim:         3,
		BlockLen:    2,
		Class:       fault.ClassComparison,
		CmpMode:     fault.CmpPersistent,
		Rate:        1,
		Site:        5,
		Persistent:  true,
		Spares:      1,
		MaxAttempts: 6,
	}
	r := Run(sc, Simnet)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if err := Check(sc, r); err != nil {
		t.Fatal(err)
	}
	rep := r.Stats.Recovery
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != 5 {
		t.Fatalf("quarantined %v, want [5]", rep.Quarantined)
	}
	if rep.FinalDim != 3 {
		t.Fatalf("FinalDim = %d, spare should have preserved dim 3", rep.FinalDim)
	}
}

// TestMemoryFaultsNeverUnverified sweeps every memory mode through a
// persistent supervision at every site of a dim-2 cube: corrupted
// cells may propagate through honest nodes before a predicate fires
// (so localization is best-effort — Check tolerates a mislocalized
// quarantine for this class), but every run must still end in a
// verified sorted permutation or a structured escalation.
func TestMemoryFaultsNeverUnverified(t *testing.T) {
	for _, mode := range fault.AllMemModes() {
		for site := 0; site < 4; site++ {
			sc := Scenario{
				Seed:        1989 + int64(site),
				Dim:         2,
				BlockLen:    2,
				Class:       fault.ClassMemory,
				MemMode:     mode,
				Rate:        1,
				Site:        site,
				Persistent:  true,
				Spares:      1,
				MaxAttempts: 6,
			}
			if err := Check(sc, Run(sc, Simnet)); err != nil {
				t.Errorf("%s: %v", sc.Name(), err)
			}
		}
	}
}

// TestEmptyPoolMatchesShrinkPath pins the acceptance criterion that
// Spares: 0 is bit-identical to the pre-spares shrink path: the
// virtual-time series and attempt trajectory of a supervised run with
// an empty pool must exactly equal a second identical run (the path is
// deterministic) and must shrink the cube as the seed behavior did.
func TestEmptyPoolMatchesShrinkPath(t *testing.T) {
	run := func() ([]int64, reliablesort.Stats) {
		sc := Scenario{
			Seed:        7,
			Dim:         3,
			BlockLen:    2,
			Strategy:    fault.KeyLie,
			Site:        3,
			Persistent:  true,
			Spares:      0,
			MaxAttempts: 6,
		}
		r := Run(sc, Simnet)
		if r.Err != nil {
			t.Fatalf("run: %v", r.Err)
		}
		if err := Check(sc, r); err != nil {
			t.Fatalf("check: %v", err)
		}
		return r.Out, r.Stats
	}
	out1, st1 := run()
	out2, st2 := run()

	rep := st1.Recovery
	// Pre-PR shrink behavior: quarantine drops the suspect onto the
	// next-smaller subcube, no substitutions ever recorded.
	if rep.FinalDim != 2 || st1.Nodes != 4 {
		t.Fatalf("empty pool recovered at dim %d with %d nodes, want shrink to dim 2 with 4", rep.FinalDim, st1.Nodes)
	}
	if len(rep.Substitutions) != 0 {
		t.Fatalf("empty pool recorded substitutions %v", rep.Substitutions)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != 3 {
		t.Fatalf("quarantined %v, want [3]", rep.Quarantined)
	}
	for _, a := range rep.Attempts {
		if a.Substituted != recovery.NoNode {
			t.Fatalf("attempt %d recorded substitution %d with an empty pool", a.Index, a.Substituted)
		}
	}

	// Bit-identical determinism: same outputs, same virtual-time
	// series, same waits.
	if len(out1) != len(out2) {
		t.Fatalf("output lengths differ: %d vs %d", len(out1), len(out2))
	}
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("outputs differ at %d: %d vs %d", i, out1[i], out2[i])
		}
	}
	r1, r2 := st1.Recovery, st2.Recovery
	if len(r1.Attempts) != len(r2.Attempts) {
		t.Fatalf("attempt counts differ: %d vs %d", len(r1.Attempts), len(r2.Attempts))
	}
	for i := range r1.Attempts {
		a, b := r1.Attempts[i], r2.Attempts[i]
		if a.Cost != b.Cost || a.Backoff != b.Backoff || a.Dim != b.Dim ||
			a.Quarantined != b.Quarantined || a.Substituted != b.Substituted {
			t.Fatalf("attempt %d diverged between identical runs:\n%+v\nvs\n%+v", i, a, b)
		}
	}
	if r1.WastedCost != r2.WastedCost || r1.TotalBackoff != r2.TotalBackoff || st1.Makespan != st2.Makespan {
		t.Fatalf("virtual-time accounting diverged: wasted %d/%d, backoff %v/%v, makespan %d/%d",
			r1.WastedCost, r2.WastedCost, r1.TotalBackoff, r2.TotalBackoff, st1.Makespan, st2.Makespan)
	}
}

// TestGenerateDeterministic pins that the scenario table is a pure
// function of its seed, which is what makes reproducer names
// meaningful.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(1989, 64)
	b := Generate(1989, 64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scenario %d differs across identical Generate calls: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := Generate(1990, 64)
	same := 0
	for i := range c {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(c) {
		t.Fatal("different seeds produced an identical scenario table")
	}
	for i, sc := range a {
		if sc.Dim < 2 || sc.Dim > 3 {
			t.Fatalf("scenario %d dim %d outside [2,3]", i, sc.Dim)
		}
		if sc.Site < 0 || sc.Site >= 1<<uint(sc.Dim) {
			t.Fatalf("scenario %d site %d outside its dim-%d cube", i, sc.Site, sc.Dim)
		}
		if sc.Pad >= sc.BlockLen {
			t.Fatalf("scenario %d pad %d would drop a whole block (blockLen %d)", i, sc.Pad, sc.BlockLen)
		}
	}
}

// TestGeneratePinned pins the scenario tables CI's chaos step runs
// (CHAOS_SEEDS 1989, 42 and 7777, 160 scenarios each) by a hash of
// their names, so a change to Scenario or Generate cannot quietly
// change which scenarios the harness supervises.
func TestGeneratePinned(t *testing.T) {
	want := map[int64]string{
		1989: "ded2f21769e25d51e9acc45ad1146a82cd695313494cebc202c3ee32f9c83af4",
		42:   "57afb6a6f1c35474b24071e837436e6db8c7a252417fab6a716dda96cd78cfb4",
		7777: "34604a1a416a1489ea8401034b23d7f530352edda374876dd8cd57dada7bfa3c",
	}
	for seed, w := range want {
		h := sha256.New()
		for _, sc := range Generate(seed, 160) {
			fmt.Fprintln(h, sc.Name())
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != w {
			t.Errorf("seed %d: scenario names hash to %s, want %s", seed, got, w)
		}
	}
}
