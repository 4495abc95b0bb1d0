package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"grca/internal/event"
)

// maxChunk bounds one raw-feed request body's lines. The server refuses
// bodies over 8 MiB, and a 14-day SNMP feed alone is ~15 MB, so whole
// feeds cannot be posted; 4 MiB leaves room for the wire framing.
const maxChunk = 4 << 20

// chunkLines splits a feed into pieces of at most limit bytes that each
// end on a line boundary, so no record is ever split across requests. A
// single line longer than limit is an error rather than a torn record.
func chunkLines(feed string, limit int) ([]string, error) {
	var out []string
	for len(feed) > 0 {
		if len(feed) <= limit {
			return append(out, feed), nil
		}
		cut := strings.LastIndexByte(feed[:limit], '\n')
		if cut < 0 {
			return nil, fmt.Errorf("feed line longer than %d bytes", limit)
		}
		out = append(out, feed[:cut+1])
		feed = feed[cut+1:]
	}
	return out, nil
}

// byAvailability orders events the way a live collector would deliver
// them: by End (an event exists once it is over), ties by ID.
func byAvailability(ins []event.Instance) {
	sort.SliceStable(ins, func(i, j int) bool {
		if !ins[i].End.Equal(ins[j].End) {
			return ins[i].End.Before(ins[j].End)
		}
		return ins[i].ID < ins[j].ID
	})
}

// replayPeriod is the time shift between successive replays of a corpus:
// the corpus duration, stretched to whole days past the last End so one
// replay's events never interleave with the next one's.
func replayPeriod(ins []event.Instance, duration time.Duration) time.Duration {
	if len(ins) == 0 {
		return duration
	}
	first, last := ins[0].End, ins[0].End
	for i := range ins {
		if ins[i].End.Before(first) {
			first = ins[i].End
		}
		if ins[i].End.After(last) {
			last = ins[i].End
		}
	}
	const day = 24 * time.Hour
	period := duration
	if span := last.Sub(first) + time.Hour; span > period {
		period = span
	}
	return (period + day - 1) / day * day
}

// shifted returns ins (already in availability order) moved k periods
// into the future, IDs cleared: the k-th replay of the corpus.
func shifted(ins []event.Instance, k int, period time.Duration) []event.Instance {
	out := make([]event.Instance, len(ins))
	d := time.Duration(k) * period
	for i, in := range ins {
		in.ID = 0
		in.Start, in.End = in.Start.Add(d), in.End.Add(d)
		out[i] = in
	}
	return out
}
