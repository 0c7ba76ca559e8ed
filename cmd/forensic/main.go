// Command forensic renders a flight-recorder dump — the JSON a
// /debug/forensic endpoint serves or the chaos harness writes to its
// artifact directory — as a human-readable causal investigation:
//
//	forensic dump.json               # causal timeline + accusation chain
//	forensic -seq 1 dump.json        # pick a report from a JSON array
//	forensic -chrome dump.json       # Chrome trace_event JSON to stdout
//
// The timeline merges every snapshotted ring into one virtual-time
// ordered view, chain hops starred, each phi and merge-split record
// with the digest of the view it checked or kept; the accusation chain
// walks from the accusation back to the offending message.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/obs/forensic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "forensic:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("forensic", flag.ContinueOnError)
	seq := fs.Int("seq", -1, "report index when the dump holds an array (default: last)")
	chrome := fs.Bool("chrome", false, "emit Chrome trace_event JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: forensic [-seq N] [-chrome] dump.json")
	}
	rep, total, err := load(fs.Arg(0), *seq)
	if err != nil {
		return err
	}

	if *chrome {
		buf, err := rep.ChromeTrace()
		if err != nil {
			return err
		}
		_, err = out.Write(buf)
		return err
	}
	renderTimeline(out, rep, total)
	return nil
}

// load reads a dump file holding either one report or a JSON array of
// them (the /debug/forensic and chaos-artifact formats), returning the
// selected report and how many the file held.
func load(path string, seq int) (*forensic.Report, int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var many []*forensic.Report
	if err := json.Unmarshal(raw, &many); err != nil {
		var one forensic.Report
		if err2 := json.Unmarshal(raw, &one); err2 != nil {
			return nil, 0, fmt.Errorf("%s: neither a report nor an array of reports: %v", path, err2)
		}
		many = []*forensic.Report{&one}
	}
	if len(many) == 0 {
		return nil, 0, fmt.Errorf("%s: no reports", path)
	}
	if seq < 0 {
		return many[len(many)-1], len(many), nil
	}
	if seq >= len(many) {
		return nil, 0, fmt.Errorf("%s holds %d report(s), no index %d", path, len(many), seq)
	}
	return many[seq], len(many), nil
}

// nodeName renders a ring label (-1 is the host processor).
func nodeName(n int32) string {
	if n == -1 {
		return "host"
	}
	return fmt.Sprintf("n%d", n)
}

// hopDetail renders the kind-specific columns of a hop.
func hopDetail(h forensic.Hop) string {
	switch h.Kind {
	case "send":
		return fmt.Sprintf("%s -> %s s%d i%d", h.MsgKind, nodeName(h.Peer), h.Stage, h.Iter)
	case "recv":
		return fmt.Sprintf("%s <- %s s%d i%d", h.MsgKind, nodeName(h.Peer), h.Stage, h.Iter)
	case "phi":
		verdict := "FAIL"
		if h.Pass {
			verdict = "pass"
		}
		return fmt.Sprintf("%s %s s%d i%d dig=%x/%x", h.Predicate, verdict, h.Stage, h.Iter, h.DigSum, h.DigXor)
	case "merge-split":
		return fmt.Sprintf("s%d i%d compares=%d dig=%x/%x", h.Stage, h.Iter, h.Aux, h.DigSum, h.DigXor)
	case "accuse":
		return fmt.Sprintf("%s against %s s%d i%d", h.Predicate, nodeName(h.Peer), h.Stage, h.Iter)
	case "quarantine":
		return fmt.Sprintf("node %s attempt %d", nodeName(h.Peer), h.Iter)
	default:
		return ""
	}
}

// renderTimeline prints the report header, the merged virtual-time
// ordered event timeline (chain hops starred), and the reconstructed
// accusation chain newest-first.
func renderTimeline(out io.Writer, rep *forensic.Report, total int) {
	inFile := ""
	if total > 1 {
		inFile = fmt.Sprintf(" (file holds %d reports; -seq selects)", total)
	}
	fmt.Fprintf(out, "Forensic report seq %d%s — %s accuses %s: %s violated at stage %d iter %d (vticks %d)\n",
		rep.Seq, inFile, nodeName(rep.Accuser), nodeName(rep.Accused), rep.Predicate, rep.Stage, rep.Iter, rep.VTicks)
	if rep.Detail != "" {
		fmt.Fprintf(out, "  detail: %s\n", rep.Detail)
	}

	onChain := make(map[uint64]bool, len(rep.Chain))
	for _, h := range rep.Chain {
		onChain[uint64(h.ID)] = true
	}

	var all []forensic.Hop
	for _, log := range rep.Nodes {
		all = append(all, log.Events...)
		if log.Dropped > 0 {
			fmt.Fprintf(out, "  note: %s ring overwrote %d older event(s)\n", nodeName(log.Node), log.Dropped)
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].VTicks != all[j].VTicks {
			return all[i].VTicks < all[j].VTicks
		}
		if all[i].Node != all[j].Node {
			return all[i].Node < all[j].Node
		}
		return all[i].ID.Seq() < all[j].ID.Seq()
	})

	fmt.Fprintf(out, "\nCausal timeline (%d events, * = on the accusation chain):\n", len(all))
	fmt.Fprintf(out, "%8s  %-5s %-12s %s\n", "vticks", "node", "event", "detail")
	for _, h := range all {
		star := " "
		if onChain[uint64(h.ID)] {
			star = "*"
		}
		fmt.Fprintf(out, "%8d %s %-5s %-12s %s\n", h.VTicks, star, nodeName(h.Node), h.Kind, hopDetail(h))
	}

	fmt.Fprintf(out, "\nAccusation chain (newest first, %d hop(s)", len(rep.Chain))
	if rep.ChainTruncated {
		fmt.Fprint(out, ", TRUNCATED by ring eviction")
	}
	fmt.Fprint(out, "):\n")
	for i, h := range rep.Chain {
		edge := ""
		if i+1 < len(rep.Chain) {
			if h.Remote != 0 {
				edge = "  <- wire"
			} else {
				edge = "  <- local"
			}
		}
		fmt.Fprintf(out, "  %2d. %-5s %-12s %s%s\n", i, nodeName(h.Node), h.Kind, hopDetail(h), edge)
	}
}
