// Command grca-load puts a bundle and an event stream into an already
// running `grca serve` over HTTP: it loads the bundle's raw feeds,
// finalizes, then streams batches of normalized events from concurrent
// workers and prints one summary line. It measures nothing beyond that
// line — `go run ./bench` is the instrument.
//
// Usage:
//
//	grca-load -addr http://localhost:8080 -bundle /tmp/corpus \
//	  [-events 200000] [-batch 500] [-c 4] [-wire json|binary]
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"grca/internal/collector"
	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/platform"
	"grca/internal/server"
	"grca/internal/wire"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "serve base URL")
	bundleDir := flag.String("bundle", "", "bundle to load before streaming (skip load phase when empty)")
	events := flag.Int("events", 200000, "normalized events to stream after finalize")
	batch := flag.Int("batch", 500, "events per ingest batch")
	workers := flag.Int("c", 4, "concurrent streaming workers")
	wireMode := flag.String("wire", "json", "ingest encoding: json or binary (the compact wire batch format)")
	flag.Parse()

	if *wireMode != "json" && *wireMode != "binary" {
		fmt.Fprintf(os.Stderr, "grca-load: -wire must be json or binary, got %q\n", *wireMode)
		os.Exit(1)
	}
	if err := run(*addr, *bundleDir, *events, *batch, *workers, *wireMode == "binary"); err != nil {
		fmt.Fprintf(os.Stderr, "grca-load: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, bundleDir string, events, batchSize, workers int, binary bool) error {
	contentType := "application/json"
	if binary {
		contentType = wire.ContentType
	}
	start := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	if bundleDir != "" {
		b, err := platform.Load(bundleDir)
		if err != nil {
			return err
		}
		start = b.Start.Add(b.Duration)
		for _, src := range collector.Sources {
			feed, ok := b.Feeds[src]
			if !ok {
				continue
			}
			var body []byte
			if binary {
				body = wire.AppendFeed(nil, src, feed)
			} else {
				var err error
				body, err = json.Marshal(server.IngestRequest{Source: src, Lines: feed})
				if err != nil {
					return err
				}
			}
			if _, err := post(addr+"/v1/ingest", contentType, body); err != nil {
				return fmt.Errorf("ingest %s: %v", src, err)
			}
		}
		// 409 means a recovered server is already serving — fine.
		if code, err := post(addr+"/v1/finalize", "application/json", []byte("{}")); err != nil && code != http.StatusConflict {
			return fmt.Errorf("finalize: %v", err)
		}
	}

	// Stream phase: location names repeat mod 64 and times increase
	// strictly, so the realtime clock only moves forward. A worker that
	// hits anything but 200 or 429 records it and keeps draining, so the
	// generator never blocks on dead workers.
	batches := make(chan []byte, workers)
	errs := make([]error, workers)
	var retries atomic.Int64
	var wg sync.WaitGroup
	began := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for body := range batches {
				for errs[w] == nil {
					code, err := post(addr+"/v1/ingest", contentType, body)
					if code != http.StatusTooManyRequests {
						errs[w] = err
						break
					}
					retries.Add(1)
					time.Sleep(50 * time.Millisecond)
				}
			}
		}(w)
	}
	// Precomputed so the generator does not spend the shared CPU
	// formatting strings per event.
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("load-r%d", i)
	}
	for produced := 0; produced < events; {
		n := min(batchSize, events-produced)
		var body []byte
		if binary {
			ins := make([]event.Instance, n)
			for i := range ins {
				at := start.Add(time.Duration(produced+i) * time.Millisecond)
				ins[i] = event.Instance{
					Name: event.InterfaceUp, Start: at, End: at,
					Loc: locus.At(locus.Interface, names[(produced+i)%64]),
				}
			}
			body = wire.AppendEvents(nil, ins)
		} else {
			evs := make([]server.EventJSON, n)
			for i := range evs {
				at := start.Add(time.Duration(produced+i) * time.Millisecond)
				evs[i] = server.EventJSON{
					Name: event.InterfaceUp, Start: at, End: at,
					Loc: server.LocationJSON{Type: "interface", A: names[(produced+i)%64]},
				}
			}
			var err error
			body, err = json.Marshal(server.IngestRequest{Events: evs})
			if err != nil {
				return err
			}
		}
		batches <- body
		produced += n
	}
	close(batches)
	wg.Wait()
	elapsed := time.Since(began)
	if err := errors.Join(errs...); err != nil {
		return err
	}
	fmt.Printf("grca-load: %d events in %v (%.0f events/s, %d 429 retries)\n",
		events, elapsed.Round(time.Millisecond), float64(events)/elapsed.Seconds(), retries.Load())
	return nil
}

// post returns the response status and, for any status but 200, an
// error carrying the start of the response body.
func post(url, contentType string, body []byte) (int, error) {
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, msg)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for keep-alive
	return resp.StatusCode, nil
}
