// Package diagnose localizes faults from the diagnostic ERROR signals
// a failed S_FT run delivers to the host. The paper provides detection
// (Theorem 3) and "reliable communication of this diagnostic
// information ... so that appropriate actions may be taken"; this
// package is that next step: rank the accused nodes so the operator
// (or an automated retry policy) knows whom to suspect.
//
// Heuristics, in order of evidential weight:
//
//  1. Direct accusations from value evidence (consistency mismatches,
//     malformed or misordered replies) name the sender of the bad
//     message. For a single faulty node these point at the culprit or
//     at a relay of its lie — and the earliest such accusation (by
//     stage, then iteration) is upstream of any relaying.
//  2. Absence accusations are weak: once an honest node fail-stops,
//     its now-silent links accuse *it* in cascades. They are consulted
//     only when no value evidence exists.
//  3. Unattributed evidence (shape/permutation failures over an
//     assembled sequence, Accused == -1) contributes no suspect.
package diagnose

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// Suspect is one candidate culprit with its supporting evidence count.
type Suspect struct {
	// Node is the suspected node label.
	Node int
	// DirectVotes counts value-evidence accusations, AbsenceVotes
	// timeout-based ones.
	DirectVotes  int
	AbsenceVotes int
	// EarliestStage/EarliestIter locate the first direct accusation
	// (or the first absence accusation when no direct ones exist).
	EarliestStage int
	EarliestIter  int
}

// isAbsence classifies an ERROR as timeout-based from its structured
// evidence kind, populated at the detection sites. Detail is
// human-readable only and is never parsed.
func isAbsence(he core.HostError) bool {
	return he.Kind == core.KindAbsence
}

// Rank aggregates the ERROR signals of one failed run into a suspect
// list, most plausible first. An empty result means no error carried
// an attribution (all evidence was shape-level).
func Rank(errors []core.HostError) []Suspect {
	byNode := map[int]*Suspect{}
	earlier := func(he core.HostError, s *Suspect) bool {
		return core.ComparePoints(he.Stage, he.Iter, s.EarliestStage, s.EarliestIter) < 0
	}
	add := func(he core.HostError, direct bool) {
		if he.Accused < 0 {
			return
		}
		s, ok := byNode[he.Accused]
		if !ok {
			s = &Suspect{Node: he.Accused, EarliestStage: he.Stage, EarliestIter: he.Iter}
			byNode[he.Accused] = s
		}
		if direct {
			// The first direct accusation overrides any absence-based
			// earliest: value evidence is what we want to time-order.
			if s.DirectVotes == 0 || earlier(he, s) {
				s.EarliestStage, s.EarliestIter = he.Stage, he.Iter
			}
			s.DirectVotes++
		} else {
			if s.DirectVotes == 0 && (s.AbsenceVotes == 0 || earlier(he, s)) {
				s.EarliestStage, s.EarliestIter = he.Stage, he.Iter
			}
			s.AbsenceVotes++
		}
	}
	for _, he := range errors {
		add(he, !isAbsence(he))
	}
	out := make([]Suspect, 0, len(byNode))
	for _, s := range byNode {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		// Any direct evidence beats any amount of absence evidence.
		if (a.DirectVotes > 0) != (b.DirectVotes > 0) {
			return a.DirectVotes > 0
		}
		if a.DirectVotes != b.DirectVotes {
			return a.DirectVotes > b.DirectVotes
		}
		// Within a stage the cascade's root is accused first (largest
		// iteration), before its stalled dependents are.
		if c := core.ComparePoints(a.EarliestStage, a.EarliestIter, b.EarliestStage, b.EarliestIter); c != 0 {
			return c < 0
		}
		if a.AbsenceVotes != b.AbsenceVotes {
			return a.AbsenceVotes > b.AbsenceVotes
		}
		return a.Node < b.Node
	})
	return out
}

// Prime returns the top suspect, ok == false when the run produced no
// attributable evidence.
func Prime(errors []core.HostError) (Suspect, bool) {
	ranked := Rank(errors)
	if len(ranked) == 0 {
		return Suspect{}, false
	}
	return ranked[0], true
}

// Report renders the ranking for operators.
func Report(errors []core.HostError) string {
	ranked := Rank(errors)
	if len(ranked) == 0 {
		return "diagnose: no attributable evidence (shape-level detection only)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "diagnose: %d suspect(s), most plausible first\n", len(ranked))
	for i, s := range ranked {
		fmt.Fprintf(&b, "  %d. node %d — %d direct, %d absence vote(s); first evidence at stage %d iter %d\n",
			i+1, s.Node, s.DirectVotes, s.AbsenceVotes, s.EarliestStage, s.EarliestIter)
	}
	return b.String()
}
