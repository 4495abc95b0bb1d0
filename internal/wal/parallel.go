package wal

import "runtime"

// replayWorkers resolves Options.ReplayWorkers.
func (o Options) replayWorkers() int {
	if o.ReplayWorkers > 0 {
		return o.ReplayWorkers
	}
	return runtime.GOMAXPROCS(0)
}
