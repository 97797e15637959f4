package service

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/telemetry"
)

// JobState is a job's position in its lifecycle.
type JobState string

// Job lifecycle states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
	// JobSuperseded is the coalescing queue's terminal state: a newer
	// delta against the same (baseline, options) target arrived while
	// this job was still queued, so this job will never run. Its status
	// points at the winning job via SupersededBy.
	JobSuperseded JobState = "superseded"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled || s == JobSuperseded
}

// Job is one engine run tracked by the server: a verification, a delta
// against a named baseline, or a baseline registration.
type Job struct {
	// ID is the server-assigned job identifier.
	ID string
	// Digest is the cache key of the request (config text + options).
	Digest string

	opts    expresso.Options
	timeout time.Duration
	// baseline names the registered baseline a delta job runs against, and
	// coalesceKey is the (baseline, options) identity superseding deltas
	// collapse on; register names the baseline a registration job leaves
	// behind. All are "" for a plain verification.
	baseline    string
	coalesceKey string
	register    string

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu    sync.Mutex
	state JobState
	// configText is the configuration the job verifies, handed to the
	// worker that runs it and dropped on every terminal transition: the
	// registry keeps finished jobs by the thousand, and a region-scale text
	// is hundreds of kilobytes.
	configText   string
	report       *expresso.Report
	registered   *expresso.BaselineInfo
	err          error
	cacheHit     bool
	supersededBy string
	stages       []expresso.StageInfo
	trace        *telemetry.Trace
	created      time.Time
	started      time.Time
	finished     time.Time
}

// Cancel requests cancellation: a queued job is skipped, a running job's
// context fires inside the EPVP/SPF loops.
func (j *Job) Cancel() { j.cancel() }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Report returns the verification report, nil until the job is done.
func (j *Job) Report() *expresso.Report {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report
}

// Err returns what ended a job that has no report: the verification's error,
// cancellation, or the notice of having been superseded.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// setRegistered records the baseline a registration job registered.
func (j *Job) setRegistered(b *expresso.BaselineInfo) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.registered = b
}

// Registered returns the baseline a finished registration job registered.
func (j *Job) Registered() *expresso.BaselineInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.registered
}

// setStages records per-stage cache provenance for the job's status view.
func (j *Job) setStages(stages []expresso.StageInfo) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.stages = stages
}

// setTrace stores the finished run trace served on GET /v1/jobs/{id}/trace.
func (j *Job) setTrace(tr *telemetry.Trace) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.trace = tr
}

// Trace returns the job's run trace, nil until the job completed with one.
func (j *Job) Trace() *telemetry.Trace {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// setRunning moves a queued job to running and hands over the text to
// verify. It reports false when the job already left the queued state —
// superseded or cancelled between the worker's dequeue and here — in which
// case the worker must not run it.
func (j *Job) setRunning(now time.Time) (configText string, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return "", false
	}
	j.state = JobRunning
	j.started = now
	return j.configText, true
}

// trySupersede retires a still-queued job in favor of winnerID: the
// compare-and-swap half of the coalescing queue. Only a queued job can be
// superseded — once a worker has claimed it (setRunning) or it reached
// any terminal state, the supersede loses and reports false.
func (j *Job) trySupersede(winnerID string, now time.Time) bool {
	j.mu.Lock()
	if j.state != JobQueued {
		j.mu.Unlock()
		return false
	}
	j.state = JobSuperseded
	j.supersededBy = winnerID
	j.err = errors.New("superseded by " + winnerID)
	j.finished = now
	j.configText = ""
	j.mu.Unlock()
	close(j.done)
	j.cancel()
	return true
}

// SupersededBy returns the winning job's ID ("" unless superseded).
func (j *Job) SupersededBy() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.supersededBy
}

// finish moves the job to a terminal state exactly once; later calls are
// ignored (a job cancelled between finish and close would otherwise race).
func (j *Job) finish(state JobState, report *expresso.Report, err error, now time.Time) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.report = report
	j.err = err
	j.finished = now
	j.configText = ""
	j.mu.Unlock()
	close(j.done)
	j.cancel() // release the job's context from the server's base context
}

// JobStatus is the JSON view of a job returned by the API.
type JobStatus struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	Digest   string   `json:"digest"`
	CacheHit bool     `json:"cache_hit"`
	// Baseline is the registered baseline a delta job ran against; Register
	// the name a registration job registers its configuration under.
	Baseline string `json:"baseline,omitempty"`
	Register string `json:"register,omitempty"`
	// SupersededBy points at the winning job when State is superseded.
	SupersededBy string           `json:"superseded_by,omitempty"`
	Error        string           `json:"error,omitempty"`
	Report       *expresso.Report `json:"report,omitempty"`
	// Stages is the per-stage cache provenance of the run that produced
	// the report (hit, miss, or warm per pipeline stage).
	Stages   []expresso.StageInfo `json:"stages,omitempty"`
	Created  time.Time            `json:"created"`
	Started  *time.Time           `json:"started,omitempty"`
	Finished *time.Time           `json:"finished,omitempty"`
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:           j.ID,
		State:        j.state,
		Digest:       j.Digest,
		CacheHit:     j.cacheHit,
		Baseline:     j.baseline,
		Register:     j.register,
		SupersededBy: j.supersededBy,
		Created:      j.created,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state.Terminal() {
		st.Report = j.report
		st.Stages = j.stages
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}
