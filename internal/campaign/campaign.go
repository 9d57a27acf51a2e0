// Package campaign is what cmd/spider-exp and the supervisor share about
// an experiment campaign: its description (Spec), which both
// front-ends validate and fingerprint through Spec.Resolve, and the
// resumable state machinery behind spider-exp's -resume flag and the
// supervisor's store — the completed-experiment ledger riding next to
// the partial archive, the canonical document codec, and durable
// persistence through internal/atomicfile.
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
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"spider/internal/archive"
	"spider/internal/atomicfile"
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

// Encode renders a state document canonically: struct field order, tab
// indentation, no HTML escaping, one trailing newline — the same
// discipline as the archive and checkpoint codecs, so state files are
// byte-stable across save/load cycles.
func Encode(doc any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "\t")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeStrict parses b into doc, rejecting unknown fields and trailing
// data: a state file is a complete document, nothing more.
func DecodeStrict(b []byte, doc any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(doc); err != nil {
		return err
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after document")
	}
	return nil
}

// WriteFile persists a state document atomically and durably
// (atomicfile.WriteFile: temp + fsync + rename + directory fsync), so a
// crash at any instant leaves either the previous state or the new one
// — never a torn or vanished file.
func WriteFile(path string, doc any) error {
	b, err := Encode(doc)
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(path, b)
}

// LoadFile reads path into doc, reporting whether the file existed. A
// missing file is not an error — it means a fresh campaign.
func LoadFile(path string, doc any) (bool, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if err := DecodeStrict(b, doc); err != nil {
		return true, fmt.Errorf("campaign state %s: %w", path, err)
	}
	return true, nil
}
