// Package metrics collects the quality-of-service measures the paper judges
// schedulers by: whether application deadlines were met ("we consider an
// event to have occurred on time if delaying its completion did not
// adversely affect the user"), how late misses were, and how unstable the
// clock setting was.
package metrics

import (
	"fmt"

	"clocksched/internal/sim"
)

// Deadline is one timing obligation an application reported: work that was
// due at Due and actually completed at Done. It belongs to a stream of
// like obligations ("frame", "audio", "speech", …) and is numbered within
// it; Name formats the two into the obligation's display name.
type Deadline struct {
	Stream string
	Seq    int
	// chunk is one more than the sub-sequence number of a chunked
	// obligation ("speech-2-chunk-7"); zero when there is none.
	chunk int
	Due   sim.Time
	Done  sim.Time
}

// Name returns the obligation's display name, e.g. "frame-12" or
// "speech-2-chunk-7". It is formatted on demand, so recording a deadline
// costs no string formatting.
func (d Deadline) Name() string {
	if d.chunk > 0 {
		return fmt.Sprintf("%s-%d-chunk-%d", d.Stream, d.Seq, d.chunk-1)
	}
	return fmt.Sprintf("%s-%d", d.Stream, d.Seq)
}

// Late returns how far past its due time the work completed (≤ 0 if on
// time).
func (d Deadline) Late() sim.Duration { return d.Done - d.Due }

// streamTally is the running digest of one deadline stream.
type streamTally struct {
	stream  string
	count   int
	maxLate sim.Duration
}

// Collector accumulates deadlines and derived statistics. It counts every
// deadline, keeps a per-stream count and worst lateness, and counts a miss
// as each late deadline arrives; nothing is kept per deadline. A 60 s
// Table 2 cell records 1500 deadlines, of which 75 (at 206.4 MHz) to about
// 220 (at 132.7 MHz) are late. Every statistic below is exact. The zero
// value is ready to use and counts every late deadline as missed.
type Collector struct {
	count   int
	misses  int
	streams []streamTally // a handful per workload; searched linearly
	// Slack is the lateness beyond which a deadline counts as missed — the
	// paper's perceptual slack. Like OnRecord, whoever runs the workload
	// sets it before the first Record. Only late deadlines can miss, so a
	// negative slack counts as zero.
	Slack sim.Duration
	// OnRecord, when set, observes each deadline as it is recorded. The
	// run harness uses it to feed the watchdog's miss detector without
	// policies importing this package.
	OnRecord func(Deadline)
}

// Record notes one completed obligation, number seq of stream.
func (c *Collector) Record(stream string, seq int, due, done sim.Time) {
	c.record(Deadline{Stream: stream, Seq: seq, Due: due, Done: done})
}

// RecordChunk notes one completed chunk of obligation seq of stream.
func (c *Collector) RecordChunk(stream string, seq, chunk int, due, done sim.Time) {
	c.record(Deadline{Stream: stream, Seq: seq, chunk: chunk + 1, Due: due, Done: done})
}

func (c *Collector) record(d Deadline) {
	c.count++
	t := c.tally(d.Stream)
	t.count++
	if l := d.Late(); l > 0 {
		if l > t.maxLate {
			t.maxLate = l
		}
		if l > c.Slack {
			c.misses++
		}
	}
	if c.OnRecord != nil {
		c.OnRecord(d)
	}
}

// tally returns stream's digest, creating it on first use.
func (c *Collector) tally(stream string) *streamTally {
	for i := range c.streams {
		if c.streams[i].stream == stream {
			return &c.streams[i]
		}
	}
	c.streams = append(c.streams, streamTally{stream: stream})
	return &c.streams[len(c.streams)-1]
}

// Reset empties the collector for another run, as the zero value it was,
// but keeps its stream array, so a recycled workload records its streams
// without growing it again.
func (c *Collector) Reset() {
	clear(c.streams)
	*c = Collector{streams: c.streams[:0]}
}

// Count returns the number of recorded deadlines.
func (c *Collector) Count() int { return c.count }

// CountFor returns the number of recorded deadlines of one stream.
func (c *Collector) CountFor(stream string) int {
	for _, t := range c.streams {
		if t.stream == stream {
			return t.count
		}
	}
	return 0
}

// MissCount returns the number of deadlines that completed more than Slack
// after their due time. The paper's inelastic-constraint assumption
// corresponds to a small perceptual slack.
func (c *Collector) MissCount() int { return c.misses }

// MaxLateness returns the largest lateness observed (zero if everything was
// early or nothing was recorded).
func (c *Collector) MaxLateness() sim.Duration {
	return c.MaxLatenessFor("")
}

// MaxLatenessFor returns the largest lateness in one deadline stream (all
// streams for the empty name). Zero if nothing matched or everything was
// early.
func (c *Collector) MaxLatenessFor(stream string) sim.Duration {
	var max sim.Duration
	for _, t := range c.streams {
		if (stream == "" || t.stream == stream) && t.maxLate > max {
			max = t.maxLate
		}
	}
	return max
}

// Desync returns the difference between the worst lateness of two deadline
// streams — the paper's audio/video synchronization measure: when the video
// stream runs late while the audio stream stays on schedule, the clip is
// audibly out of sync.
func (c *Collector) Desync(streamA, streamB string) sim.Duration {
	a := c.MaxLatenessFor(streamA)
	b := c.MaxLatenessFor(streamB)
	if a > b {
		return a - b
	}
	return b - a
}

// MissRate returns the fraction of deadlines missed by more than Slack.
func (c *Collector) MissRate() float64 {
	if c.count == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.count)
}

// Summary formats the collector for reports.
func (c *Collector) Summary() string {
	return fmt.Sprintf("%d deadlines, %d missed (slack %v), max lateness %v",
		c.Count(), c.misses, c.Slack, c.MaxLateness())
}
