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
// Both take m keys per node, as core.RunBlocks and sortnr.RunBlocks
// do: keys[id*m:(id+1)*m] is node id's block. Figure 6 is the m = 1
// case, Figure 8 the m > 1 one.
package hostsort

import (
	"fmt"

	"repro/internal/bitonic"
	"repro/internal/checker"
	"repro/internal/node"
	"repro/internal/sortnr"
	"repro/internal/transport"
	"repro/internal/wire"
)

// RunHostSort executes the host-sort baseline with m keys per node:
// upload, sequential sort on the host, download. The output is the
// node-order concatenation of the downloaded blocks, which is the
// globally sorted ascending sequence.
func RunHostSort(nw transport.Network, keys []int64, m int) ([]int64, *node.Result, error) {
	n := nw.Topology().Nodes()
	if err := checkShape(n, keys, m); err != nil {
		return nil, nil, err
	}
	out := make([]int64, n*m)
	prog := func(ep transport.Endpoint) error {
		id := ep.ID()
		if err := upload(ep, 0, keys[id*m:(id+1)*m]); err != nil {
			return err
		}
		down, err := ep.RecvHost()
		if err != nil {
			return fmt.Errorf("hostsort: node %d download: %w", id, err)
		}
		p, err := wire.DecodeHost(down.Payload)
		if err == nil && len(p.Keys) != m {
			err = fmt.Errorf("%d keys, want %d", len(p.Keys), m)
		}
		if err != nil {
			return fmt.Errorf("hostsort: node %d download: %w", id, err)
		}
		copy(out[id*m:], p.Keys)
		return nil
	}

	hostProg := func(h transport.Host) error {
		all := make([]int64, n*m)
		if err := gather(h, m, all); err != nil {
			return err
		}
		// Parallel across the host's cores; output and comparison count
		// (and so the charged virtual time) match bitonic.MergeSortCount
		// exactly.
		sorted, compares := bitonic.ParallelMergeSortCount(all, 0)
		h.ChargeCompare(compares)
		h.ChargeKeyMove(len(sorted))
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
		return nil
	}

	res, err := node.Run(nw, prog, hostProg)
	if err != nil {
		return nil, nil, fmt.Errorf("hostsort: %w", err)
	}
	return out, res, nil
}

// RunHostVerify executes the host-verification baseline with m keys
// per node: the nodes upload their initial blocks, sort among
// themselves with S_NR, then upload the sorted blocks; the host
// applies Theorem 1. The host's error (in the Result) is non-nil when
// verification fails — but note this baseline cannot say *which* node
// misbehaved, and the host is a serial bottleneck; these are the
// drawbacks the paper's distributed checking removes.
func RunHostVerify(nw transport.Network, keys []int64, m int) ([]int64, *node.Result, error) {
	n := nw.Topology().Nodes()
	if err := checkShape(n, keys, m); err != nil {
		return nil, nil, err
	}
	out := make([]int64, n*m)
	prog := func(ep transport.Endpoint) error {
		id := ep.ID()
		block, sorted := keys[id*m:(id+1)*m], out[id*m:(id+1)*m]
		if err := upload(ep, 0, block); err != nil {
			return err
		}
		if err := sortnr.NodeProgram(block, sorted, sortnr.Options{})(ep); err != nil {
			return err
		}
		return upload(ep, 1, sorted)
	}

	hostProg := func(h transport.Host) error {
		initial, sorted := make([]int64, n*m), make([]int64, n*m)
		if err := gather(h, m, initial, sorted); err != nil {
			return err
		}
		h.ChargeCompare(checker.VerifyCost(n * m))
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

func checkShape(n int, keys []int64, m int) error {
	if m < 1 || len(keys) != n*m {
		return fmt.Errorf("hostsort: %d keys for %d nodes of %d keys each", len(keys), n, m)
	}
	return nil
}

// upload ships block to the host, labelled with the gather phase it
// belongs to.
func upload(ep transport.Endpoint, phase int32, block []int64) error {
	msg := wire.Message{
		Kind:    wire.KindHostUpload,
		Stage:   phase,
		Payload: wire.AppendHost(nil, block),
	}
	if err := ep.SendHost(msg); err != nil {
		return fmt.Errorf("hostsort: node %d upload %d: %w", ep.ID(), phase, err)
	}
	return nil
}

// gather receives one m-key upload per node for each phase, the
// upload's Stage naming the phase, and files node id's phase-s block
// at phases[s][id*m:(id+1)*m]. Filing by sender rather than arrival
// order matters: the host's merge-sort compare count, charged as
// virtual time, depends on input order, and arrival order depends on
// goroutine scheduling. An upload from outside the cube, for an
// unknown phase, of other than m keys, or for a slot already filled is
// an error and is not filed.
func gather(h transport.Host, m int, phases ...[]int64) error {
	n := len(phases[0]) / m
	// One decode scratch for every upload keeps the host's per-message
	// work allocation-free.
	var dec wire.DecodeScratch
	filled := make([]bool, len(phases)*n)
	for range filled {
		msg, err := h.Recv()
		if err != nil {
			return fmt.Errorf("hostsort: host gather: %w", err)
		}
		from, phase := int(msg.From), int(msg.Stage)
		p, err := wire.DecodeHostInto(&dec, msg.Payload)
		switch {
		case err != nil:
		case from < 0 || from >= n:
			err = fmt.Errorf("sender outside the %d-node cube", n)
		case phase < 0 || phase >= len(phases):
			err = fmt.Errorf("unknown phase %d", phase)
		case len(p.Keys) != m:
			err = fmt.Errorf("%d keys, want %d", len(p.Keys), m)
		case filled[phase*n+from]:
			err = fmt.Errorf("phase %d uploaded twice", phase)
		}
		if err != nil {
			return fmt.Errorf("hostsort: host gather from %d: %w", from, err)
		}
		filled[phase*n+from] = true
		copy(phases[phase][from*m:], p.Keys)
	}
	return nil
}
