package server

import "thermctl/internal/metrics"

// srvMetrics holds the campaign server's instrument handles. Every
// field is nil-safe (a nil handle ignores updates), so a server built
// without a registry pays one branch per update and nothing else.
type srvMetrics struct {
	// submitted counts accepted job submissions; rejected counts
	// refusals by reason (invalid spec, full queue, draining).
	submitted *metrics.Counter
	rejected  map[string]*metrics.Counter
	// finished counts jobs by terminal state.
	finished map[State]*metrics.Counter
	// queueDepth and running track the pool's live occupancy.
	queueDepth *metrics.Gauge
	running    *metrics.Gauge
	// jobSeconds observes wall-clock campaign latency.
	jobSeconds *metrics.Histogram
	// streamClients gauges live SSE subscribers; streamDropped counts
	// records lost to slow subscribers; encodeErrs counts stream
	// marshal failures.
	streamClients *metrics.Gauge
	streamDropped *metrics.Counter
	encodeErrs    *metrics.Counter
}

// Rejection reasons, the values of the rejected counter's reason label.
const (
	rejectInvalid  = "invalid"
	rejectQueue    = "queue_full"
	rejectDraining = "draining"
	rejectTooLarge = "too_large"
)

// jobLatencyBuckets span fast 4-node campaigns (~0.1s) through long
// fleet runs.
var jobLatencyBuckets = []float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// newSrvMetrics registers the server's instruments on reg, or returns
// an all-nil (no-op) set when reg is nil. Registration happens here,
// at wiring time, never on the job or stream paths.
func newSrvMetrics(reg *metrics.Registry) *srvMetrics {
	m := &srvMetrics{}
	if reg == nil {
		return m
	}
	m.submitted = reg.NewCounter("thermsrv_jobs_submitted_total",
		"Campaign jobs accepted into the queue.")
	m.rejected = map[string]*metrics.Counter{}
	for _, reason := range []string{rejectInvalid, rejectQueue, rejectDraining, rejectTooLarge} {
		m.rejected[reason] = reg.NewCounter("thermsrv_jobs_rejected_total",
			"Campaign submissions refused, by reason.", metrics.L("reason", reason))
	}
	m.finished = map[State]*metrics.Counter{}
	for _, st := range []State{StateDone, StateFailed, StateCanceled} {
		m.finished[st] = reg.NewCounter("thermsrv_jobs_finished_total",
			"Campaign jobs reaching a terminal state, by state.", metrics.L("state", string(st)))
	}
	m.queueDepth = reg.NewGauge("thermsrv_queue_depth",
		"Jobs waiting in the campaign queue.")
	m.running = reg.NewGauge("thermsrv_jobs_running",
		"Campaigns currently executing on the worker pool.")
	m.jobSeconds = reg.NewHistogram("thermsrv_job_seconds",
		"Wall-clock campaign execution latency in seconds.", jobLatencyBuckets)
	m.streamClients = reg.NewGauge("thermsrv_stream_clients",
		"Live SSE stream subscribers.")
	m.streamDropped = reg.NewCounter("thermsrv_stream_dropped_total",
		"Stream records dropped because a subscriber's buffer was full.")
	m.encodeErrs = reg.NewCounter("thermsrv_stream_encode_errors_total",
		"Stream telemetry records that failed to marshal.")
	return m
}
