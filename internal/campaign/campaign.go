// Package campaign is what cmd/spider-exp and the supervisor share about
// an experiment campaign: its description (Spec), which both
// front-ends validate and fingerprint through Spec.Resolve, and the
// resumable State behind spider-exp's -resume flag and the supervisor's
// store — the completed-experiment ledger riding next to the partial
// archive. Each front-end wraps State in its own versioned envelope and
// persists it through internal/docfile.
//
// A campaign is a multi-experiment archived run. After each experiment
// completes, the partial archive plus the completed-id list persist
// atomically; a rerun (or a restarted supervisor) skips everything the
// state records and continues from the first missing experiment. The
// final archive is byte-identical to an uninterrupted run of the same
// flags — the resume tests in cmd/spider-exp's CI job and
// internal/supervisor both pin that property.
package campaign

import (
	"fmt"

	"spider/internal/archive"
)

// State is the resumable core of a campaign: which experiments already
// completed, the archive document they produced, and the fingerprint of
// the campaign identity. Consumers embed it in their own envelope
// (format/version plus any service fields) — the embedded JSON fields
// are inlined, so cmd/spider-exp's on-disk format is unchanged.
type State struct {
	// ConfigFP fingerprints the campaign identity (seed, scale, chaos,
	// the id list): a state file never resumes a different campaign.
	ConfigFP  string           `json:"config_fp"`
	Completed []string         `json:"completed"`
	Archive   *archive.Archive `json:"archive"`
}

// Done reports whether the experiment already completed in a prior run.
func (s *State) Done(id string) bool {
	for _, c := range s.Completed {
		if c == id {
			return true
		}
	}
	return false
}

// MarkDone records an experiment as completed (idempotently).
func (s *State) MarkDone(id string) {
	if !s.Done(id) {
		s.Completed = append(s.Completed, id)
	}
}

// Verify checks the recorded identity against the campaign the caller
// is about to run.
func (s *State) Verify(fp string) error {
	if s.ConfigFP != fp {
		return fmt.Errorf("recorded campaign %s, flags describe %s (delete the file to start over)",
			s.ConfigFP, fp)
	}
	return nil
}
