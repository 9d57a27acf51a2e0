package main

import (
	"fmt"

	"spider/internal/campaign"
	"spider/internal/docfile"
)

// A campaign state file makes a multi-experiment archived run
// crash-resumable at experiment granularity: after each experiment
// completes, the partial archive and the completed-id list are
// persisted atomically and durably (internal/campaign's State in an
// internal/docfile document). A rerun with -resume pointing at the
// file skips everything it records and continues from the first
// missing experiment; the final archive is byte-identical to an
// uninterrupted run of the same flags.
const (
	campaignFormat  = "spider-exp-campaign"
	campaignVersion = 1
)

// campaignState is the CLI's on-disk envelope around the shared
// resumable core. The embedded fields inline, so the file format is
// unchanged from before the extraction.
type campaignState struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	campaign.State
}

// loadCampaign reads the state file, returning a fresh state when the
// file does not exist yet.
func loadCampaign(path, fp string) (*campaignState, error) {
	var s campaignState
	ok, err := docfile.ReadFile(path, &s)
	if err != nil {
		return nil, fmt.Errorf("campaign state: %w", err)
	}
	if !ok {
		s = campaignState{Format: campaignFormat, Version: campaignVersion}
		s.ConfigFP = fp
		return &s, nil
	}
	if err := docfile.CheckHeader(s.Format, s.Version, campaignFormat, campaignVersion, campaignVersion); err != nil {
		return nil, fmt.Errorf("campaign state %s: %w", path, err)
	}
	if err := s.Verify(fp); err != nil {
		return nil, fmt.Errorf("campaign state %s: %w", path, err)
	}
	return &s, nil
}

// skippedResult stands in for an experiment the campaign state already
// holds: the archived document is reused verbatim, only the textual
// report is unavailable without rerunning.
type skippedResult string

func (s skippedResult) String() string {
	return fmt.Sprintf("[%s already archived by an earlier run of this campaign; skipped]", string(s))
}

// save persists the state atomically and durably, so a crash at any
// instant leaves either the previous state or the new one.
func (s *campaignState) save(path string) error {
	return docfile.WriteFile(path, s)
}
