// Package supervisor is the simulation-as-a-service layer: a
// long-running HTTP daemon that accepts campaign specs (scenario /
// chaos / sweep options + an experiment list), fans the runs across the
// deterministic sweep engine under a bounded worker pool, streams
// per-run progress, serves the resulting spider-archive documents, and
// exposes a live Prometheus scrape.
//
// The service composes only machinery the CLIs already trust:
// internal/expt runs and archives experiments, internal/campaign
// persists the completed-run ledger atomically and durably after every
// run, and internal/obs renders the scrape. Three properties carry over
// from the CLI world and are pinned by the package tests plus the
// supervisor-smoke CI job:
//
//   - Archive identity: GET /campaigns/{id}/archive is byte-identical
//     to `spider-exp -archive-out` with the same flags.
//   - Crash resumability: a killed supervisor reopens its store and
//     resumes every incomplete campaign at run granularity, and the
//     resumed archive is still byte-identical.
//   - Isolation: concurrent campaigns never perturb each other —
//     each one owns its archive, its obs registry, and its RNG streams
//     (derived per task, never shared), so submission concurrency is
//     invisible in the results.
package supervisor

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"spider/internal/archive"
	"spider/internal/campaign"
	"spider/internal/expt"
	"spider/internal/obs"
)

// ErrDraining rejects submissions during graceful shutdown.
var ErrDraining = errors.New("supervisor: draining, not accepting campaigns")

// Campaign is one submitted campaign's in-memory state. All mutable
// fields are guarded by the Server's mutex; the runner goroutine only
// touches them through the Server's note* helpers.
type Campaign struct {
	rec     *record
	ids     []string // resolved id list, run order
	opts    expt.Options
	arch    *archive.Archive
	reg     *obs.Registry // per-campaign metrics, merged into /metrics
	current string        // experiment in flight ("" if none)
	started time.Time     // when current started
	elapsed map[string]time.Duration
	cancel  chan struct{} // closed by POST .../cancel
	donech  chan struct{} // closed when the runner exits
}

// RunStatus is one experiment's progress within a campaign.
type RunStatus struct {
	ID        string `json:"id"`
	Status    string `json:"status"` // pending | running | done
	ElapsedUS int64  `json:"elapsed_us,omitempty"`
}

// CampaignStatus is the JSON body of GET /campaigns/{id}.
type CampaignStatus struct {
	ID            string        `json:"id"`
	Status        string        `json:"status"`
	Error         string        `json:"error,omitempty"`
	Spec          campaign.Spec `json:"spec"`
	TotalRuns     int           `json:"total_runs"`
	CompletedRuns int           `json:"completed_runs"`
	Runs          []RunStatus   `json:"runs"`
}

// Server is the campaign supervisor: an HTTP-facing registry of
// campaigns backed by a store directory and a bounded run pool.
type Server struct {
	dir string
	sem chan struct{} // bounds concurrently-executing runs, fleet-wide

	mu        sync.Mutex
	campaigns map[string]*Campaign
	order     []string // campaign ids, submission order
	nextID    int
	draining  bool
	stop      chan struct{} // closed by Shutdown: finish in-flight runs, then park

	wg  sync.WaitGroup
	reg *obs.Registry // the supervisor's own metrics

	mSubmitted, mCompleted, mFailed, mCancelled, mRuns *obs.Counter
	gCampaignsInflight, gRunsInflight                  *obs.Gauge
}

// New opens (creating if needed) a supervisor over the given store
// directory and resumes every campaign the store records as incomplete.
// maxRuns bounds how many experiments execute concurrently across all
// campaigns (<=0 means 1).
func New(dir string, maxRuns int) (*Server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if maxRuns <= 0 {
		maxRuns = 1
	}
	s := &Server{
		dir:       dir,
		sem:       make(chan struct{}, maxRuns),
		campaigns: make(map[string]*Campaign),
		stop:      make(chan struct{}),
		reg:       obs.NewRegistry(),
	}
	s.mSubmitted = s.reg.Counter("supervisor_campaigns_submitted_total", "campaigns accepted by POST /campaigns")
	s.mCompleted = s.reg.Counter("supervisor_campaigns_completed_total", "campaigns that reached status done")
	s.mFailed = s.reg.Counter("supervisor_campaigns_failed_total", "campaigns that reached status failed")
	s.mCancelled = s.reg.Counter("supervisor_campaigns_cancelled_total", "campaigns that reached status cancelled")
	s.mRuns = s.reg.Counter("supervisor_runs_completed_total", "experiment runs completed across all campaigns")
	s.gCampaignsInflight = s.reg.Gauge("supervisor_campaigns_inflight", "campaigns currently pending or running")
	s.gRunsInflight = s.reg.Gauge("supervisor_runs_inflight", "experiment runs executing right now")

	recs, maxID, err := loadRecords(dir)
	if err != nil {
		return nil, err
	}
	s.nextID = maxID + 1
	for _, rec := range recs {
		c, err := s.adopt(rec)
		if err != nil {
			return nil, fmt.Errorf("supervisor: campaign %s: %w", rec.ID, err)
		}
		if rec.Status == StatusPending || rec.Status == StatusRunning {
			// The previous process died (or drained) mid-campaign:
			// resume from the persisted ledger, skipping completed runs.
			s.gCampaignsInflight.Set(s.gCampaignsInflight.Value() + 1)
			s.wg.Add(1)
			go s.runCampaign(c)
		} else {
			close(c.donech)
		}
	}
	return s, nil
}

// adopt wires a loaded record into the in-memory registry.
func (s *Server) adopt(rec *record) (*Campaign, error) {
	ids, opts, fp, err := rec.Spec.Resolve()
	if err != nil {
		return nil, err
	}
	if err := rec.State.Verify(fp); err != nil {
		return nil, err
	}
	c := &Campaign{
		rec: rec, ids: ids, opts: opts,
		reg:     obs.NewRegistry(),
		elapsed: make(map[string]time.Duration),
		cancel:  make(chan struct{}),
		donech:  make(chan struct{}),
	}
	c.opts.Obs = &obs.Obs{Reg: c.reg}
	c.arch = rec.Archive
	if c.arch == nil {
		c.arch = expt.NewArchive(opts)
		rec.Archive = c.arch
	}
	s.campaigns[rec.ID] = c
	s.order = append(s.order, rec.ID)
	return c, nil
}

// Submit validates a spec, persists the new campaign, and starts it.
// It returns the campaign id.
func (s *Server) Submit(sp campaign.Spec) (string, error) {
	sp = sp.Normalize()
	_, _, fp, err := sp.Resolve()
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return "", ErrDraining
	}
	id := fmt.Sprintf("c%06d", s.nextID)
	s.nextID++
	rec := &record{Format: recordFormat, Version: recordVersion, ID: id, Spec: sp, Status: StatusPending}
	rec.ConfigFP = fp
	c, err := s.adopt(rec)
	if err != nil {
		// Resolve just succeeded; only a pathological store could fail
		// here, and the submission must not half-register.
		delete(s.campaigns, id)
		s.order = s.order[:len(s.order)-1]
		return "", err
	}
	if err := saveRecord(s.dir, rec); err != nil {
		delete(s.campaigns, id)
		s.order = s.order[:len(s.order)-1]
		return "", err
	}
	s.mSubmitted.Inc()
	s.gCampaignsInflight.Set(s.gCampaignsInflight.Value() + 1)
	s.wg.Add(1)
	go s.runCampaign(c)
	return id, nil
}

// runCampaign is one campaign's runner goroutine: it walks the id list
// in order, skipping what the ledger records, acquiring a pool slot for
// each run, and persisting the ledger after every completion. The
// runner exits in one of four ways: the list completes (done), a run
// fails (failed), cancellation lands between runs (cancelled), or the
// supervisor drains (state left on disk as running, resumed by the next
// process).
func (s *Server) runCampaign(c *Campaign) {
	defer s.wg.Done()
	defer close(c.donech)
	s.setStatus(c, StatusRunning, "")
	for _, id := range c.ids {
		s.mu.Lock()
		done := c.rec.Done(id)
		s.mu.Unlock()
		if done {
			continue
		}
		select {
		case <-s.stop:
			// Draining: everything completed so far is already durable;
			// the next process resumes from exactly here.
			return
		case <-c.cancel:
			s.finish(c, StatusCancelled, "")
			return
		case s.sem <- struct{}{}:
		}
		s.noteRunStart(c, id)
		// The run itself happens without the lock: this is hours of
		// simulation in the general case. RunArchived appends to the
		// campaign's own archive; nothing here is shared across
		// campaigns, which is what makes concurrent submission
		// invisible in the bytes.
		_, err := expt.RunArchived(c.arch, id, c.opts)
		<-s.sem
		if err != nil {
			s.noteRunEnd(c, id, false)
			s.finish(c, StatusFailed, fmt.Sprintf("%s: %v", id, err))
			return
		}
		s.noteRunEnd(c, id, true)
		if err := s.persist(c); err != nil {
			s.finish(c, StatusFailed, fmt.Sprintf("persist after %s: %v", id, err))
			return
		}
	}
	s.finish(c, StatusDone, "")
}

func (s *Server) setStatus(c *Campaign, status, errMsg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.rec.Status = status
	c.rec.Error = errMsg
}

// finish moves a campaign to a terminal state and persists it.
func (s *Server) finish(c *Campaign, status, errMsg string) {
	s.mu.Lock()
	c.rec.Status = status
	c.rec.Error = errMsg
	err := saveRecord(s.dir, c.rec)
	if err != nil && status != StatusFailed {
		c.rec.Status = StatusFailed
		c.rec.Error = fmt.Sprintf("persist: %v", err)
	}
	switch c.rec.Status {
	case StatusDone:
		s.mCompleted.Inc()
	case StatusFailed:
		s.mFailed.Inc()
	case StatusCancelled:
		s.mCancelled.Inc()
	}
	s.gCampaignsInflight.Set(s.gCampaignsInflight.Value() - 1)
	s.mu.Unlock()
}

func (s *Server) noteRunStart(c *Campaign, id string) {
	s.mu.Lock()
	c.current, c.started = id, time.Now()
	s.gRunsInflight.Set(s.gRunsInflight.Value() + 1)
	s.mu.Unlock()
}

func (s *Server) noteRunEnd(c *Campaign, id string, ok bool) {
	s.mu.Lock()
	c.elapsed[id] = time.Since(c.started)
	c.current = ""
	if ok {
		c.rec.MarkDone(id)
		s.mRuns.Inc()
	}
	s.gRunsInflight.Set(s.gRunsInflight.Value() - 1)
	s.mu.Unlock()
}

// persist writes the campaign ledger (completed ids + partial archive)
// through the atomic, durable writer.
func (s *Server) persist(c *Campaign) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.rec.Archive = c.arch
	return saveRecord(s.dir, c.rec)
}

// Cancel requests cancellation: the in-flight run (if any) completes —
// experiments are uninterruptible units — and no further run starts.
// It reports whether the campaign exists.
func (s *Server) Cancel(id string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.campaigns[id]
	if c == nil {
		return "", false
	}
	switch c.rec.Status {
	case StatusPending, StatusRunning:
		select {
		case <-c.cancel:
		default:
			close(c.cancel)
		}
		return "cancelling", true
	default:
		return c.rec.Status, true
	}
}

// Status reports one campaign's progress.
func (s *Server) Status(id string) (CampaignStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.campaigns[id]
	if c == nil {
		return CampaignStatus{}, false
	}
	return s.statusLocked(c), true
}

// List reports every campaign in submission order.
func (s *Server) List() []CampaignStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CampaignStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.campaigns[id]))
	}
	return out
}

func (s *Server) statusLocked(c *Campaign) CampaignStatus {
	st := CampaignStatus{
		ID: c.rec.ID, Status: c.rec.Status, Error: c.rec.Error,
		Spec: c.rec.Spec, TotalRuns: len(c.ids),
	}
	for _, id := range c.ids {
		rs := RunStatus{ID: id, Status: "pending"}
		switch {
		case c.rec.Done(id):
			rs.Status = "done"
			rs.ElapsedUS = c.elapsed[id].Microseconds()
			st.CompletedRuns++
		case id == c.current:
			rs.Status = "running"
			rs.ElapsedUS = time.Since(c.started).Microseconds()
		}
		st.Runs = append(st.Runs, rs)
	}
	return st
}

// ArchiveBytes returns the campaign's archive document. Only a
// completed campaign serves bytes: a partial document would decode fine
// but silently miss experiments, which is exactly the confusion the
// byte-identity contract exists to prevent.
func (s *Server) ArchiveBytes(id string) ([]byte, string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.campaigns[id]
	if c == nil {
		return nil, "", false
	}
	if c.rec.Status != StatusDone {
		return nil, c.rec.Status, true
	}
	return c.arch.Encode(), StatusDone, true
}

// MetricsSnapshot merges the supervisor's own registry with every
// campaign's live registry, in campaign order — the body of a
// /metrics scrape.
func (s *Server) MetricsSnapshot() obs.Snapshot {
	s.mu.Lock()
	regs := make([]*obs.Registry, 0, len(s.order)+1)
	regs = append(regs, s.reg)
	for _, id := range s.order {
		regs = append(regs, s.campaigns[id].reg)
	}
	s.mu.Unlock()
	// Snapshot outside the server lock: registries have their own.
	snaps := make([]obs.Snapshot, len(regs))
	for i, r := range regs {
		snaps[i] = r.Snapshot()
	}
	return obs.MergeSnapshots(snaps...)
}

// Shutdown drains the supervisor: no new campaigns are accepted, no new
// runs start, and in-flight runs get until the context's deadline to
// complete. Campaign state is already durable run by run, so whatever
// the deadline cuts off resumes in the next process.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.stop)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("supervisor: drain deadline passed with runs in flight: %w", ctx.Err())
	}
}
