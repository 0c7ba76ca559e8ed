// Package hostsort implements the two sequential baselines of the
// paper's Section 5:
//
//   - Host sort: every node ships its data to the reliable host, the
//     host sorts sequentially (O(N log N) comparisons, O(N)
//     communication), and ships the results back. This is the
//     alternative the paper argues against for large N.
//   - Host verification: the nodes sort among themselves with the
//     unreliable S_NR, and both the initial and the sorted data are
//     shipped to the host, which applies Theorem 1 (permutation +
//     order check) — O(N) communication and O(N log N) computation.
//
// Both support the block variant (m keys per node) used by Figure 8.
package hostsort

import (
	"fmt"
	"sort"

	"repro/internal/bitonic"
	"repro/internal/checker"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sortnr"
	"repro/internal/transport"
	"repro/internal/wire"
)

// MergeSortCount sorts xs ascending with a top-down merge sort and
// returns the comparison count, so the harness can charge the host
// deterministic virtual time. The input slice is not modified.
// It is re-exported from the bitonic package for API locality.
func MergeSortCount(xs []int64) (sorted []int64, compares int) {
	return bitonic.MergeSortCount(xs)
}

// RunHostSort executes the host-sort baseline with one key per node:
// upload, sequential sort on the host, download. It returns out with
// out[id] = node id's final key (ascending by node label).
func RunHostSort(nw transport.Network, keys []int64) ([]int64, *node.Result, error) {
	return RunHostSortObs(nw, keys, nil)
}

// RunHostSortObs is RunHostSort with an observer receiving
// upload/host-sort/download phase spans (nil disables them).
func RunHostSortObs(nw transport.Network, keys []int64, o *obs.Observer) ([]int64, *node.Result, error) {
	n := nw.Topology().Nodes()
	if len(keys) != n {
		return nil, nil, fmt.Errorf("hostsort: %d keys for %d nodes", len(keys), n)
	}
	blocks := make([][]int64, n)
	for i, k := range keys {
		blocks[i] = []int64{k}
	}
	outBlocks, res, err := RunHostSortBlocksObs(nw, blocks, o)
	if err != nil {
		return nil, nil, err
	}
	out := make([]int64, n)
	for i, b := range outBlocks {
		if len(b) != 1 {
			return nil, nil, fmt.Errorf("hostsort: node %d received %d keys, want 1", i, len(b))
		}
		out[i] = b[0]
	}
	return out, res, nil
}

// RunHostSortBlocks executes the host-sort baseline with a block of
// keys per node. All blocks must have equal length. The returned
// blocks are globally sorted ascending across node labels.
func RunHostSortBlocks(nw transport.Network, blocks [][]int64) ([][]int64, *node.Result, error) {
	return RunHostSortBlocksObs(nw, blocks, nil)
}

// RunHostSortBlocksObs is RunHostSortBlocks with an observer. Each
// node journals "upload" and "download" spans; the host journals
// "host-gather", "host-sort", and "host-scatter" spans with node -1.
// The spans read the virtual clocks but never charge them.
func RunHostSortBlocksObs(nw transport.Network, blocks [][]int64, o *obs.Observer) ([][]int64, *node.Result, error) {
	n := nw.Topology().Nodes()
	if len(blocks) != n {
		return nil, nil, fmt.Errorf("hostsort: %d blocks for %d nodes", len(blocks), n)
	}
	m := len(blocks[0])
	for i, b := range blocks {
		if len(b) != m {
			return nil, nil, fmt.Errorf("hostsort: block %d has %d keys, want %d", i, len(b), m)
		}
	}

	out := make([][]int64, n)
	prog := func(ep transport.Endpoint) error {
		id := ep.ID()
		o.SpanBegin("upload", id, int64(ep.Clock()))
		up := wire.Message{
			Kind:    wire.KindHostUpload,
			Payload: wire.AppendHost(nil, blocks[id]),
		}
		if err := ep.SendHost(up); err != nil {
			return fmt.Errorf("hostsort: node %d upload: %w", id, err)
		}
		o.SpanEnd("upload", id, int64(ep.Clock()))
		o.SpanBegin("download", id, int64(ep.Clock()))
		down, err := ep.RecvHost()
		if err != nil {
			return fmt.Errorf("hostsort: node %d download: %w", id, err)
		}
		p, err := wire.DecodeHost(down.Payload)
		if err != nil {
			return fmt.Errorf("hostsort: node %d download: %w", id, err)
		}
		out[id] = p.Keys
		o.SpanEnd("download", id, int64(ep.Clock()))
		return nil
	}

	hostProg := func(h transport.Host) error {
		// The gather loop decodes into one scratch and copies into the
		// preallocated flat slice, so the host's per-message work is
		// allocation-free. Each upload lands at its sender's slot, not in
		// arrival order: the merge sort's compare count, charged as host
		// virtual time, depends on input order, and arrival order depends
		// on goroutine scheduling.
		var dec wire.DecodeScratch
		all := make([]int64, n*m)
		o.SpanBegin("host-gather", -1, int64(h.Clock()))
		for seen := 0; seen < n; seen++ {
			msg, err := h.Recv()
			if err != nil {
				return fmt.Errorf("hostsort: host gather: %w", err)
			}
			p, err := wire.DecodeHostInto(&dec, msg.Payload)
			if err != nil {
				return fmt.Errorf("hostsort: host gather: %w", err)
			}
			from := int(msg.From)
			if from < 0 || from >= n || len(p.Keys) != m {
				return fmt.Errorf("hostsort: host gather from %d: %d keys, want %d", from, len(p.Keys), m)
			}
			copy(all[from*m:], p.Keys)
		}
		o.SpanEnd("host-gather", -1, int64(h.Clock()))
		o.SpanBegin("host-sort", -1, int64(h.Clock()))
		// Parallel across the host's cores; output and comparison count
		// (and so the charged virtual time) match MergeSortCount exactly.
		sorted, compares := bitonic.ParallelMergeSortCount(all, 0)
		h.ChargeCompare(compares)
		h.ChargeKeyMove(len(sorted))
		o.SpanEnd("host-sort", -1, int64(h.Clock()))
		o.SpanBegin("host-scatter", -1, int64(h.Clock()))
		var enc []byte
		for id := 0; id < n; id++ {
			enc = wire.AppendHost(enc[:0], sorted[id*m:(id+1)*m])
			msg := wire.Message{
				Kind:    wire.KindHostDownload,
				Payload: enc,
			}
			if err := h.Send(id, msg); err != nil {
				return fmt.Errorf("hostsort: host scatter: %w", err)
			}
		}
		o.SpanEnd("host-scatter", -1, int64(h.Clock()))
		return nil
	}

	res, err := node.Run(nw, prog, hostProg)
	if err != nil {
		return nil, nil, fmt.Errorf("hostsort: %w", err)
	}
	return out, res, nil
}

// RunHostVerify executes the host-verification baseline: the nodes
// upload their initial keys, sort among themselves with S_NR, then
// upload the sorted keys; the host applies Theorem 1. The returned
// error from the host (in the Result) is non-nil when verification
// fails — but note this baseline cannot say *which* node misbehaved,
// and the host is a serial bottleneck; these are the drawbacks the
// paper's distributed checking removes.
func RunHostVerify(nw transport.Network, keys []int64) ([]int64, *node.Result, error) {
	n := nw.Topology().Nodes()
	if len(keys) != n {
		return nil, nil, fmt.Errorf("hostsort: %d keys for %d nodes", len(keys), n)
	}
	out := make([]int64, n)
	prog := func(ep transport.Endpoint) error {
		id := ep.ID()
		kbuf := [1]int64{keys[id]}
		up := wire.Message{
			Kind:    wire.KindHostUpload,
			Stage:   0, // phase marker: initial data
			Payload: wire.AppendHost(nil, kbuf[:]),
		}
		if err := ep.SendHost(up); err != nil {
			return fmt.Errorf("hostsort: node %d initial upload: %w", id, err)
		}
		final, err := sortnrNode(ep, keys[id])
		if err != nil {
			return err
		}
		out[id] = final
		kbuf[0] = final
		up2 := wire.Message{
			Kind:    wire.KindHostUpload,
			Stage:   1, // phase marker: sorted data
			Payload: wire.AppendHost(nil, kbuf[:]),
		}
		if err := ep.SendHost(up2); err != nil {
			return fmt.Errorf("hostsort: node %d sorted upload: %w", id, err)
		}
		return nil
	}

	hostProg := func(h transport.Host) error {
		var dec wire.DecodeScratch
		initial := make([]int64, n)
		sorted := make([]int64, n)
		for seen := 0; seen < 2*n; seen++ {
			msg, err := h.Recv()
			if err != nil {
				return fmt.Errorf("hostsort: host gather: %w", err)
			}
			p, err := wire.DecodeHostInto(&dec, msg.Payload)
			if err != nil || len(p.Keys) != 1 {
				return fmt.Errorf("hostsort: host gather from %d: bad payload", msg.From)
			}
			if msg.Stage == 0 {
				initial[msg.From] = p.Keys[0]
			} else {
				sorted[msg.From] = p.Keys[0]
			}
		}
		h.ChargeCompare(checker.VerifyCost(n))
		if err := checker.Verify(initial, sorted, true); err != nil {
			return fmt.Errorf("hostsort: verification failed: %w", err)
		}
		return nil
	}

	res, err := node.Run(nw, prog, hostProg)
	if err != nil {
		return nil, nil, fmt.Errorf("hostsort: %w", err)
	}
	return out, res, nil
}

// sortnrNode runs one node's share of S_NR inline (used by the
// host-verification baseline, which layers uploads around the
// unreliable sort).
func sortnrNode(ep transport.Endpoint, key int64) (int64, error) {
	var out int64
	prog := sortnr.NodeProgram(key, &out, sortnr.Options{})
	if err := prog(ep); err != nil {
		return 0, err
	}
	return out, nil
}

// SortedBlocksFlat flattens per-node blocks into one slice, in node
// order — a convenience for verifying block-sorted results.
func SortedBlocksFlat(blocks [][]int64) []int64 {
	var out []int64
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

// SortStdlibCount is a reference comparison-counting wrapper around
// the standard library's sort, used in tests to sanity-check
// MergeSortCount's comparison totals stay within the expected
// O(N log N) envelope.
func SortStdlibCount(xs []int64) (sorted []int64, compares int) {
	out := append([]int64{}, xs...)
	sort.Slice(out, func(i, j int) bool {
		compares++
		return out[i] < out[j]
	})
	return out, compares
}
