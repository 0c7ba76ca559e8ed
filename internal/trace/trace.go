// Package trace collects the per-node stage views S_FT and the block
// sort publish into a thread-safe, queryable recording — the machinery
// behind cmd/tracesort's reproduction of the paper's Figure 5 worked
// example, and a debugging aid for protocol tests. A Recorder is an
// obs.StageSubscriber: pass it to obs.Observer.Subscribe.
package trace

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"repro/internal/hypercube"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Event is one recorded stage view: a node's assembled, verified
// sequence at the end of a stage or of the final verification round.
type Event struct {
	// Node is the reporting node.
	Node int
	// Stage is the completed stage index, or the cube dimension for
	// the final verification round.
	Stage int
	// Final marks the final verification round.
	Final bool
	// Subcube is the home subcube the sequence covers.
	Subcube hypercube.Subcube
	// Assembled is the gathered sequence (the verified LBS): the
	// output of stage Stage-1 for regular stages, the final sorted
	// sequence when Final.
	Assembled []int64
	// Causal is the flight-recorder event id the publishing node held
	// at publish time, the join key against forensic dump chains (zero
	// for untraced runs).
	Causal wire.EventID
}

// Recorder accumulates stage events from concurrently running nodes.
// The zero value is ready to use.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// Recorder subscribes to the unified stage-view stream.
var _ obs.StageSubscriber = (*Recorder)(nil)

// OnStageView implements obs.StageSubscriber: it records the stage
// view, copying its sequence (the producer reuses its storage).
func (r *Recorder) OnStageView(v obs.StageView) {
	ev := Event{
		Node:  v.Node,
		Stage: v.Stage,
		Final: v.Final,
		Subcube: hypercube.Subcube{
			Dim:   bits.Len(uint(v.SubcubeSize)) - 1,
			Start: v.SubcubeStart,
			End:   v.SubcubeStart + v.SubcubeSize - 1,
		},
		Assembled: append([]int64{}, v.Assembled...),
		Causal:    v.Causal,
	}
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Events returns a copy of all recorded events in arrival order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event{}, r.events...)
}

// ByNode returns node id's events sorted by stage. The recording is
// filtered under one lock acquisition, without copying the full event
// slice the way Events does.
func (r *Recorder) ByNode(id int) []Event {
	r.mu.Lock()
	var out []Event
	for _, ev := range r.events {
		if ev.Node == id {
			out = append(out, ev)
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}

// StageView is one distinct home subcube's assembled sequence at the
// end of a stage, deduplicated across the (identical) copies every
// member node holds.
type StageView struct {
	Stage     int
	Final     bool
	Start     int // subcube bounds
	End       int
	Assembled []int64
	// Agreed is false when member nodes reported different sequences
	// for the same subcube — impossible in a fault-free run.
	Agreed bool
}

// Stage returns the deduplicated subcube views for one stage, ordered
// by subcube start. Like ByNode, it walks the recording under a single
// lock acquisition.
func (r *Recorder) Stage(stage int) []StageView {
	views := map[[2]int]*StageView{}
	r.mu.Lock()
	for _, ev := range r.events {
		if ev.Stage != stage {
			continue
		}
		key := [2]int{ev.Subcube.Start, ev.Subcube.End}
		v, ok := views[key]
		if !ok {
			views[key] = &StageView{
				Stage: ev.Stage, Final: ev.Final,
				Start: ev.Subcube.Start, End: ev.Subcube.End,
				Assembled: ev.Assembled, Agreed: true,
			}
			continue
		}
		if len(v.Assembled) != len(ev.Assembled) {
			v.Agreed = false
			continue
		}
		for i := range v.Assembled {
			if v.Assembled[i] != ev.Assembled[i] {
				v.Agreed = false
				break
			}
		}
	}
	r.mu.Unlock()
	out := make([]StageView, 0, len(views))
	for _, v := range views {
		out = append(out, *v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Stages returns the distinct stage indices recorded, ascending.
func (r *Recorder) Stages() []int {
	seen := map[int]bool{}
	r.mu.Lock()
	for _, ev := range r.events {
		seen[ev.Stage] = true
	}
	r.mu.Unlock()
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Render formats the whole recording in the style of the paper's
// Figure 5: one line per distinct subcube per stage.
func (r *Recorder) Render() string {
	var b strings.Builder
	for _, s := range r.Stages() {
		views := r.Stage(s)
		if len(views) == 0 {
			continue
		}
		if views[0].Final {
			fmt.Fprintf(&b, "Final verification — every node holds the full verified result:\n")
		} else {
			fmt.Fprintf(&b, "End of stage %d — verified LBS per home subcube:\n", s)
		}
		for _, v := range views {
			mark := ""
			if !v.Agreed {
				mark = "  (NODES DISAGREE)"
			}
			fmt.Fprintf(&b, "  SC[%d..%d]  LBS = %v%s\n", v.Start, v.End, v.Assembled, mark)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
