// Command tracesort reproduces the paper's Figure 5: the worked
// example of S_FT sorting {10, 8, 3, 9, 4, 2, 7, 5} on an 8-node
// (dimension 3) hypercube. It prints each home subcube's verified
// bitonic sequence (LBS) at the end of every stage and the final
// verified result — exactly the quantities the figure annotates.
//
// The sequences are read off the wire. S_FT piggybacks each node's
// view of the stage's LBS on the exchanges the sort already makes, and
// the reply that closes a stage (the active node's echo across
// dimension 0) carries that view complete. An identity link tap on
// every cube link keeps those complete views; nothing in the sort
// records them for the trace.
//
//	tracesort                  # the paper's example
//	tracesort -keys 5,1,4,2    # your own list (power-of-two length)
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flaglist"
	"repro/internal/hypercube"
	"repro/internal/obs/forensic"
	"repro/internal/simnet"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracesort:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracesort", flag.ContinueOnError)
	keysFlag := fs.String("keys", "10,8,3,9,4,2,7,5", "comma-separated keys, one per node (power-of-two count)")
	causal := fs.Bool("causal", false, "print each node's causal event id per stage (joins against forensic dumps)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	keys, err := flaglist.Parse[int64](*keysFlag)
	if err != nil {
		return fmt.Errorf("-keys: %w", err)
	}
	if !hypercube.IsPow2(len(keys)) {
		return fmt.Errorf("key count %d is not a power of two", len(keys))
	}
	dim, err := hypercube.Log2(len(keys))
	if err != nil {
		return err
	}

	// The flight recorder stamps every frame with the trace id of its
	// send event, the join key against forensic dumps.
	flight := forensic.New(0)
	opts := make([]core.Options, len(keys))
	for id := range opts {
		opts[id] = core.Options{Forensic: flight.Node(id)}
	}
	nw, err := simnet.New(simnet.Config{Dim: dim, RecvTimeout: 10 * time.Second, Flight: flight})
	if err != nil {
		return err
	}
	tap := new(viewTap)
	for id := range keys {
		for b := 0; b < dim; b++ {
			if err := nw.InstallLinkFault(id, id^(1<<b), tap); err != nil {
				return err
			}
		}
	}
	oc, err := core.RunWithOptions(nw, keys, opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "S_FT worked example (Figure 5) — sorting %v on %d nodes\n", keys, len(keys))
	fmt.Fprintf(out, "Initial placement: node i holds keys[i].\n\n")
	fmt.Fprint(out, tap.render(dim))
	if *causal {
		fmt.Fprintf(out, "Causal event ids (node, stage -> flight-recorder id):\n")
		for _, c := range tap.causal() {
			fmt.Fprintf(out, "  node %d stage %d: %d\n", c.node, c.stage, uint64(c.id))
		}
		fmt.Fprintln(out)
	}
	if oc.Detected() {
		fmt.Fprintf(out, "ERROR signalled: %v %v\n", oc.Result.FirstNodeErr(), oc.HostErrors)
		return fmt.Errorf("unexpected fault detection on honest run")
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	fmt.Fprintf(out, "Result across nodes 0..%d: %v\n", len(keys)-1, oc.Sorted)
	fmt.Fprintf(out, "Expected:                 %v\n", sorted)
	return nil
}

// fullView is one complete view seen on the wire: the whole LBS of the
// subcube [start, start+size) at a stage (the cube dimension for the
// final verification round), sent from one node to its partner in the
// frame whose send event is id.
type fullView struct {
	stage, start, size int
	from, to           int
	lbs                []int64
	id                 wire.EventID
}

// viewTap is an identity simnet.LinkFault: it delivers every frame as
// sent, keeping the complete views of S_FT's exchange and verification
// frames. One tap serves every link, so its log is locked.
type viewTap struct {
	mu    sync.Mutex
	views []fullView
}

// Apply implements simnet.LinkFault.
func (t *viewTap) Apply(raw []byte) [][]byte {
	if v, ok := decodeFullView(raw); ok {
		t.mu.Lock()
		t.views = append(t.views, v)
		t.mu.Unlock()
	}
	return [][]byte{raw}
}

// decodeFullView returns the view a frame carries when it covers every
// slot of its subcube.
func decodeFullView(raw []byte) (fullView, bool) {
	m, err := wire.DecodeFrom(raw)
	if err != nil {
		return fullView{}, false
	}
	var v wire.View
	switch m.Kind {
	case wire.KindFTExchange:
		p, err := wire.DecodeFTExchange(m.Payload)
		if err != nil {
			return fullView{}, false
		}
		v = p.View
	case wire.KindVerify:
		p, err := wire.DecodeVerify(m.Payload)
		if err != nil {
			return fullView{}, false
		}
		v = p.View
	default:
		return fullView{}, false
	}
	if v.Mask.Count() != int(v.Size) {
		return fullView{}, false
	}
	return fullView{stage: int(m.Stage), start: int(v.Base), size: int(v.Size),
		from: int(m.From), to: int(m.To), lbs: v.Vals, id: m.Trace.ID()}, true
}

// sorted returns the tapped views in (stage, subcube, sender) order,
// so the output does not depend on goroutine arrival order.
func (t *viewTap) sorted() []fullView {
	t.mu.Lock()
	views := slices.Clone(t.views)
	t.mu.Unlock()
	slices.SortFunc(views, func(a, b fullView) int {
		return cmp.Or(cmp.Compare(a.stage, b.stage), cmp.Compare(a.start, b.start), cmp.Compare(a.from, b.from))
	})
	return views
}

// render formats the tapped views in the style of the paper's Figure 5:
// one line per distinct subcube per stage, marked when the copies sent
// within the subcube disagree (impossible in a fault-free run).
func (t *viewTap) render(dim int) string {
	var b strings.Builder
	views := t.sorted()
	for i := 0; i < len(views); {
		v := views[i]
		if i == 0 || views[i-1].stage != v.stage {
			if i > 0 {
				b.WriteByte('\n')
			}
			if v.stage == dim {
				fmt.Fprintf(&b, "Final verification — every node holds the full verified result:\n")
			} else {
				fmt.Fprintf(&b, "End of stage %d — verified LBS per home subcube:\n", v.stage)
			}
		}
		mark := ""
		for i++; i < len(views) && views[i].stage == v.stage && views[i].start == v.start; i++ {
			if !slices.Equal(views[i].lbs, v.lbs) {
				mark = "  (NODES DISAGREE)"
			}
		}
		fmt.Fprintf(&b, "  SC[%d..%d]  LBS = %v%s\n", v.start, v.start+v.size-1, v.lbs, mark)
	}
	if len(views) > 0 {
		b.WriteByte('\n')
	}
	return b.String()
}

// nodeID is one node's causal event id at one stage.
type nodeID struct {
	node, stage int
	id          wire.EventID
}

// causal returns each node's causal id per stage, in (stage, node)
// order: the trace id of the frame that carried the node's complete
// view across its dimension-0 link. That frame is the sender's send
// event and the Remote of the receiver's recv record, so both ends of
// the stage's last exchange join against forensic dumps at it.
func (t *viewTap) causal() []nodeID {
	var ids []nodeID
	for _, v := range t.sorted() {
		ids = append(ids, nodeID{v.from, v.stage, v.id}, nodeID{v.to, v.stage, v.id})
	}
	slices.SortFunc(ids, func(a, b nodeID) int {
		return cmp.Or(cmp.Compare(a.stage, b.stage), cmp.Compare(a.node, b.node))
	})
	return ids
}
