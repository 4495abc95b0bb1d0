package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"grca/internal/wire"
)

// ops counts operations the way the failed share is defined: one per
// logical request, failed if it ever saw a 429, a transport error, or a
// final non-2xx — a 429 that a retry later turned into a 200 still
// counts once.
type ops struct {
	mu        sync.Mutex
	attempted int
	failed    int
	retried   int // 429 answers, each followed by a Retry-After sleep
}

func (o *ops) note(failed bool, retries int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	o.retried += retries
	if failed || retries > 0 {
		o.failed++
	}
}

func (o *ops) counts() (attempted, failed, retried int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.attempted, o.failed, o.retried
}

// do issues one request and returns the status and the whole body.
func (e *env) do(method, url, ctype string, body []byte) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := e.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header, err
}

// get fetches url outside the operation count (harness polling).
func (e *env) get(url string) ([]byte, error) {
	status, body, _, err := e.do(http.MethodGet, url, "", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, status, bytes.TrimSpace(body))
	}
	return body, nil
}

// getJSON fetches url and decodes the body into v.
func (e *env) getJSON(url string, v any) error {
	body, err := e.get(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// call is one counted operation: it retries 429s after the server's
// Retry-After, and reports the body and the latency of the attempt that
// was answered. name labels the client-side span of a traced run.
func (e *env) call(o *ops, name, method, url, ctype string, body []byte) ([]byte, time.Duration, error) {
	req := 0
	if e.tr != nil {
		req = int(e.reqID.Add(1))
	}
	outer := e.tr.begin(name, e.phase, req)
	defer e.tr.end(outer)
	retries := 0
	for {
		attempt := e.tr.begin(name+".attempt", outer, req)
		t0 := time.Now()
		status, data, hdr, err := e.do(method, url, ctype, body)
		took := time.Since(t0)
		e.tr.end(attempt)
		switch {
		case err != nil:
			o.note(true, retries)
			return nil, took, fmt.Errorf("%s %s: %v", method, url, err)
		case status == http.StatusTooManyRequests:
			retries++
			after, _ := strconv.Atoi(hdr.Get("Retry-After"))
			wait := e.tr.begin(name+".retry_after", outer, req)
			time.Sleep(time.Duration(max(after, 1)) * time.Second)
			e.tr.end(wait)
		case status/100 != 2:
			o.note(true, retries)
			return data, took, fmt.Errorf("%s %s: status %d: %s", method, url, status, bytes.TrimSpace(data))
		default:
			o.note(false, retries)
			return data, took, nil
		}
	}
}

// ingest posts one pre-encoded wire batch.
func (e *env) ingest(o *ops, name, base string, body []byte) ([]byte, time.Duration, error) {
	return e.call(o, name, http.MethodPost, base+"/v1/ingest", wire.ContentType, body)
}

// statsDoc is the part of /v1/stats the benchmark reads.
type statsDoc struct {
	Phase   string `json:"phase"`
	Events  int    `json:"events"`
	Metrics struct {
		Counters map[string]float64 `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	} `json:"metrics"`
}

func (e *env) stats(base string) (statsDoc, error) {
	var s statsDoc
	return s, e.getJSON(base+"/v1/stats", &s)
}

// eventsDoc is the summary form of /v1/events.
type eventsDoc struct {
	Events int `json:"events"`
	Span   struct {
		First time.Time `json:"first"`
		Last  time.Time `json:"last"`
	} `json:"span"`
}

func (e *env) events(base string) (eventsDoc, error) {
	var d eventsDoc
	return d, e.getJSON(base+"/v1/events", &d)
}
