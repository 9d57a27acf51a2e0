// Package checkpoint implements the versioned crash-resume snapshot: a
// canonical document capturing a sharded city's complete simulator
// state at a barrier epoch — every tile's event queue (as re-armable
// event identities), per-client protocol stacks, medium state, RNG
// stream positions, fault-injector ledgers and episode phases, metric
// handles, trace rings, and the pending halo frames between tiles.
//
// The format follows the archive codec's discipline (docs/CHECKPOINT.md):
//
//   - Encode is canonical: fixed field order, tab indentation, no HTML
//     escaping, exactly one trailing newline. decode(encode(c)) == c.
//   - Decode rejects unknown fields, trailing data, wrong formats and
//     unsupported versions, and never panics on arbitrary input.
//   - Every list inside the state is sorted by a plan- or kernel-derived
//     key (clients in world order, RNG streams by name, pending events
//     by (at, seq)), so a checkpoint's bytes are a pure function of
//     simulated state — independent of scheduling, worker count, or map
//     iteration order.
//
// A checkpoint is only consistent at a shard barrier: every captured
// halo beacon is sealed for its neighbours, every tile sits at the same
// virtual time, and every pending event is strictly in the future.
// Capture refuses anything else.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"spider/internal/atomicfile"
	"spider/internal/shard"
)

// Format and Version identify the data format. Any field addition,
// removal, rename, or change of meaning anywhere in the state tree
// bumps Version; a decoder accepts exactly the versions it knows.
//
// Version history:
//
//	1 — initial format.
//	2 — DriverState gained Dormant/StartEv (staggered admission).
//	    Version-1 documents decode losslessly: both fields default to
//	    an immediately-started driver, the only state v1 could express.
const (
	Format  = "spider-checkpoint"
	Version = 2
)

// minVersion is the oldest document version the decoder still accepts.
const minVersion = 1

// Checkpoint is one resumable snapshot document.
type Checkpoint struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Seed and ConfigFP identify the run: resuming verifies both, so a
	// checkpoint can never be applied to a world it does not describe.
	Seed     int64  `json:"seed"`
	ConfigFP string `json:"config_fp"`
	// City is the complete simulator state at the barrier.
	City shard.CityState `json:"city"`
}

// Capture snapshots a city at its current barrier.
func Capture(c *shard.City, seed int64, configFP string) (*Checkpoint, error) {
	st, err := c.ExportState()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Checkpoint{
		Format: Format, Version: Version,
		Seed: seed, ConfigFP: configFP,
		City: st,
	}, nil
}

// Apply restores the snapshot into a freshly built city, first
// verifying the checkpoint describes the same run the city was built
// for.
func (ck *Checkpoint) Apply(c *shard.City, seed int64, configFP string) error {
	if ck.Seed != seed {
		return fmt.Errorf("checkpoint: seed %d, resuming run has %d", ck.Seed, seed)
	}
	if ck.ConfigFP != configFP {
		return fmt.Errorf("checkpoint: config %s, resuming run has %s", ck.ConfigFP, configFP)
	}
	return c.RestoreState(ck.City)
}

// Encode renders the checkpoint in canonical form: struct field order,
// tab indentation, no HTML escaping, one trailing newline.
func (ck *Checkpoint) Encode() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "\t")
	if err := enc.Encode(ck); err != nil {
		// The state tree is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("checkpoint: encode: %v", err))
	}
	return buf.Bytes()
}

// Decode parses a checkpoint document, rejecting unknown fields,
// trailing data, wrong formats and unsupported versions. It never
// panics on arbitrary input (the fuzz target's contract); deep
// consistency is verified by Apply against the rebuilt world.
func Decode(b []byte) (*Checkpoint, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var ck Checkpoint
	if err := dec.Decode(&ck); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("checkpoint: decode: trailing data after document")
	}
	if ck.Format != Format {
		return nil, fmt.Errorf("checkpoint: format %q, want %q", ck.Format, Format)
	}
	if ck.Version < minVersion || ck.Version > Version {
		return nil, fmt.Errorf("checkpoint: version %d unsupported (decoder knows %d..%d)", ck.Version, minVersion, Version)
	}
	return &ck, nil
}

// WriteFile persists the checkpoint atomically and durably via
// atomicfile.WriteFile (temp + fsync + rename + directory fsync). A
// crash mid-write leaves the previous checkpoint intact — the property
// the crash-resume harness relies on.
func WriteFile(path string, ck *Checkpoint) error {
	return atomicfile.WriteFile(path, ck.Encode())
}

// ReadFile loads and decodes a checkpoint file.
func ReadFile(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}
