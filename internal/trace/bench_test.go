package trace

import (
	"testing"

	"repro/internal/obs"
)

// populate fills a recorder the way a dim-6 block run would: nodes×
// stages events, each with a small assembled slice.
func populate(b *testing.B, nodes, stages int) *Recorder {
	b.Helper()
	rec := &Recorder{}
	buf := []int64{1, 2, 3, 4}
	for s := 0; s < stages; s++ {
		for id := 0; id < nodes; id++ {
			rec.OnStageView(obs.StageView{Node: id, Stage: s, SubcubeStart: 0, SubcubeSize: 2, BlockLen: 1, Assembled: buf})
		}
	}
	return rec
}

// BenchmarkRecorderByNode pins the single-lock query path: before the
// refactor every ByNode call copied the entire recording via Events.
func BenchmarkRecorderByNode(b *testing.B) {
	rec := populate(b, 64, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := rec.ByNode(13); len(got) != 7 {
			b.Fatalf("events = %d", len(got))
		}
	}
}

func BenchmarkRecorderStage(b *testing.B) {
	rec := populate(b, 64, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := rec.Stage(3); len(got) != 1 {
			b.Fatalf("views = %d", len(got))
		}
	}
}
