package trace

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hypercube"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/simnet"
)

// publisher returns a function that publishes one-key stage views
// through an Observer rec is subscribed to, the way a run's nodes do.
func publisher(rec *Recorder) func(node, stage int, sc hypercube.Subcube, assembled []int64) {
	o := obs.New(obs.NewRegistry(), 0)
	o.Subscribe(rec)
	return func(node, stage int, sc hypercube.Subcube, assembled []int64) {
		o.PublishStage(obs.StageView{
			Node: node, Stage: stage,
			SubcubeStart: sc.Start, SubcubeSize: sc.Size(),
			BlockLen: 1, Assembled: assembled,
		})
	}
}

func TestRecorderCollectsAndDeduplicates(t *testing.T) {
	var rec Recorder
	o := obs.New(obs.NewRegistry(), 0)
	o.Subscribe(&rec)
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5}
	opts := make([]core.Options, len(keys))
	for id := range opts {
		opts[id] = core.Options{Obs: o}
	}
	nw, err := simnet.New(simnet.Config{Dim: 3, RecvTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	oc, err := core.RunWithOptions(nw, keys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if oc.Detected() {
		t.Fatal("spurious detection")
	}

	// 8 nodes × 4 events each.
	if got := len(rec.Events()); got != 32 {
		t.Fatalf("events = %d, want 32", got)
	}
	if got := rec.Stages(); len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Fatalf("stages = %v", got)
	}
	// Stage 0: four dimension-1 subcubes.
	views := rec.Stage(0)
	if len(views) != 4 {
		t.Fatalf("stage 0 views = %d", len(views))
	}
	for _, v := range views {
		if !v.Agreed {
			t.Fatalf("nodes disagree in honest run: %+v", v)
		}
		if len(v.Assembled) != 2 {
			t.Fatalf("stage 0 assembled = %v", v.Assembled)
		}
	}
	// Final: one whole-cube view, sorted.
	finals := rec.Stage(3)
	if len(finals) != 1 || !finals[0].Final {
		t.Fatalf("final views = %+v", finals)
	}
	want := []int64{2, 3, 4, 5, 7, 8, 9, 10}
	for i := range want {
		if finals[0].Assembled[i] != want[i] {
			t.Fatalf("final assembled = %v", finals[0].Assembled)
		}
	}
	// ByNode ordering.
	evs := rec.ByNode(5)
	if len(evs) != 4 {
		t.Fatalf("node 5 events = %d", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Stage < evs[i-1].Stage {
			t.Fatal("ByNode not stage-ordered")
		}
	}
}

// TestRecorderAsStageSubscriber runs the stream with a flight recorder
// attached, as cmd/tracesort does: every recorded event carries the
// causal id its node held at publish time, and the final view covers
// the whole cube.
func TestRecorderAsStageSubscriber(t *testing.T) {
	var rec Recorder
	o := obs.New(obs.NewRegistry(), 0)
	o.Subscribe(&rec)
	flight := forensic.New(0)
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5}
	opts := make([]core.Options, len(keys))
	for id := range opts {
		opts[id] = core.Options{Obs: o, Forensic: flight.Node(id)}
	}
	nw, err := simnet.New(simnet.Config{Dim: 3, RecvTimeout: 5 * time.Second, Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	oc, err := core.RunWithOptions(nw, keys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if oc.Detected() {
		t.Fatal("spurious detection")
	}
	evs := rec.Events()
	if len(evs) != 32 {
		t.Fatalf("events = %d, want 32", len(evs))
	}
	for _, ev := range evs {
		if ev.Causal == 0 {
			t.Fatalf("node %d stage %d: no causal id under a flight recorder", ev.Node, ev.Stage)
		}
	}
	finals := rec.Stage(3)
	if len(finals) != 1 || !finals[0].Final || !finals[0].Agreed {
		t.Fatalf("final views = %+v", finals)
	}
	if finals[0].Start != 0 || finals[0].End != 7 {
		t.Fatalf("final subcube = [%d..%d], want [0..7]", finals[0].Start, finals[0].End)
	}
	want := []int64{2, 3, 4, 5, 7, 8, 9, 10}
	for i := range want {
		if finals[0].Assembled[i] != want[i] {
			t.Fatalf("final assembled = %v", finals[0].Assembled)
		}
	}
}

// TestSubscriberCopiesAssembled pins the aliasing contract: StageView's
// Assembled slice belongs to the producer, so the recorder must copy.
func TestSubscriberCopiesAssembled(t *testing.T) {
	var rec Recorder
	buf := []int64{7, 8}
	rec.OnStageView(obs.StageView{Node: 0, Stage: 0, SubcubeStart: 0, SubcubeSize: 2, BlockLen: 1, Assembled: buf})
	buf[0] = -1
	if rec.Events()[0].Assembled[0] != 7 {
		t.Error("subscriber did not copy the assembled slice")
	}
}

func TestRecorderRender(t *testing.T) {
	var rec Recorder
	publish := publisher(&rec)
	sc := hypercube.Subcube{Dim: 1, Start: 0, End: 1}
	publish(0, 0, sc, []int64{5, 1})
	publish(1, 0, sc, []int64{5, 1})
	out := rec.Render()
	if !strings.Contains(out, "End of stage 0") || !strings.Contains(out, "SC[0..1]") {
		t.Errorf("Render = %q", out)
	}
	if strings.Contains(out, "DISAGREE") {
		t.Errorf("agreeing views flagged: %q", out)
	}
}

func TestRecorderFlagsDisagreement(t *testing.T) {
	var rec Recorder
	publish := publisher(&rec)
	sc := hypercube.Subcube{Dim: 1, Start: 2, End: 3}
	publish(2, 1, sc, []int64{1, 2})
	publish(3, 1, sc, []int64{1, 99})
	views := rec.Stage(1)
	if len(views) != 1 || views[0].Agreed {
		t.Fatalf("views = %+v", views)
	}
	if !strings.Contains(rec.Render(), "DISAGREE") {
		t.Error("Render does not flag disagreement")
	}
	// Length mismatch is also disagreement.
	var rec2 Recorder
	publish2 := publisher(&rec2)
	publish2(2, 1, sc, []int64{1, 2})
	publish2(3, 1, sc, []int64{1})
	if rec2.Stage(1)[0].Agreed {
		t.Error("length mismatch not flagged")
	}
}

func TestRecorderCopiesAssembled(t *testing.T) {
	var rec Recorder
	buf := []int64{7, 8}
	publisher(&rec)(0, 0, hypercube.Subcube{Dim: 1, Start: 0, End: 1}, buf)
	buf[0] = -1 // producer reuses its buffer
	if rec.Events()[0].Assembled[0] != 7 {
		t.Error("recorder did not copy the assembled slice")
	}
}

func TestRecorderEmpty(t *testing.T) {
	var rec Recorder
	if len(rec.Events()) != 0 || len(rec.Stages()) != 0 || rec.Render() != "" {
		t.Error("zero-value recorder not empty")
	}
	if len(rec.Stage(0)) != 0 || len(rec.ByNode(3)) != 0 {
		t.Error("zero-value recorder queries not empty")
	}
}
