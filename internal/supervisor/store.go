package supervisor

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"spider/internal/campaign"
)

// Campaign lifecycle states. A killed supervisor leaves campaigns at
// StatusPending/StatusRunning on disk; reopening the store resumes
// them. The terminal states are done, failed and cancelled.
const (
	StatusPending   = "pending"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// record is one campaign's persisted document: the supervisor envelope
// around the shared resumable core (completed ids + partial archive).
// It is rewritten atomically and durably after every completed run, so
// a crash at any instant loses at most the run in flight.
const (
	recordFormat  = "spider-supervisor-campaign"
	recordVersion = 1
)

type record struct {
	Format  string        `json:"format"`
	Version int           `json:"version"`
	ID      string        `json:"id"`
	Spec    campaign.Spec `json:"spec"`
	Status  string        `json:"status"`
	Error   string        `json:"error,omitempty"`
	campaign.State
}

// recordPath is the campaign's file in the store directory.
func recordPath(dir, id string) string {
	return filepath.Join(dir, id+".campaign.json")
}

// saveRecord persists a campaign record through the atomic writer.
func saveRecord(dir string, rec *record) error {
	return campaign.WriteFile(recordPath(dir, rec.ID), rec)
}

// loadRecords reads every campaign record in the store directory,
// sorted by campaign id, and reports the highest numeric id seen so
// new submissions continue the sequence.
func loadRecords(dir string) ([]*record, int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	var recs []*record
	maxID := 0
	for _, e := range ents {
		name := e.Name()
		id, ok := strings.CutSuffix(name, ".campaign.json")
		if !ok || e.IsDir() {
			continue
		}
		var rec record
		found, err := campaign.LoadFile(filepath.Join(dir, name), &rec)
		if err != nil {
			return nil, 0, err
		}
		if !found {
			continue
		}
		if rec.Format != recordFormat || rec.Version != recordVersion {
			return nil, 0, fmt.Errorf("campaign %s: format %q v%d unsupported", name, rec.Format, rec.Version)
		}
		if rec.ID != id {
			return nil, 0, fmt.Errorf("campaign %s: file names %q", name, rec.ID)
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(rec.ID, "c")); err == nil && n > maxID {
			maxID = n
		}
		recs = append(recs, &rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs, maxID, nil
}
