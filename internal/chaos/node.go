package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"grca/internal/apps"
	"grca/internal/event"
	"grca/internal/server"
	"grca/internal/store"
	"grca/internal/wal"
	"grca/internal/wire"
)

// The durability classes (crash-restart, replica-lag, partition) drive the
// diagnosis service itself: server.Open over a data dir, fed over its HTTP
// API. A node is one such server, listening on a loopback port.
type node struct {
	srv    *server.Server
	url    string
	closed bool
}

func openNode(cfg server.Config) (*node, error) {
	srv, err := server.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("chaos: open %s: %v", cfg.DataDir, err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background()) //nolint:errcheck // the listen error is the one reported
		return nil, err
	}
	return &node{srv: srv, url: "http://" + addr}, nil
}

// close drains and stops the node, once: a primary's shutdown rolls and
// checkpoints, as a clean stop does.
func (n *node) close() error {
	if n.closed {
		return nil
	}
	n.closed = true
	return n.srv.Shutdown(context.Background())
}

// call sends one request and answers its body; anything but a 200 is an
// error. A GET has a nil body; with v set, the answer is decoded into it.
func (n *node) call(path, contentType string, body []byte, v any) ([]byte, error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, n.url+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
	case resp.StatusCode != http.StatusOK:
		err = fmt.Errorf("chaos: %s %s: %s %s", req.Method, path, resp.Status, bytes.TrimSpace(out))
	case v != nil:
		err = json.Unmarshal(out, v)
	}
	return out, err
}

// nodeState is what two nodes are held equal on: the store's digest and
// every application's /v1/breakdown bytes.
type nodeState struct{ digest, breakdown string }

func (n *node) state() (nodeState, error) {
	var b strings.Builder
	for _, a := range apps.All() {
		body, err := n.call("/v1/breakdown?app="+a.Name, "", nil, nil)
		if err != nil {
			return nodeState{}, err
		}
		b.Write(body)
	}
	return nodeState{wal.StoreDigest(n.srv.Store()), b.String()}, nil
}

// batch is one wire event batch of the delivery schedule.
type batch struct {
	body   []byte
	events int
}

// wireBatches cuts the clean store's live events, in ID order, into wire
// batches of size events.
func wireBatches(clean store.Store, size int) []batch {
	var ins []event.Instance
	clean.SnapshotTo(func(int, int, int) error { return nil }, func(in *event.Instance) error { //nolint:errcheck // neither callback fails
		ins = append(ins, *in)
		return nil
	})
	var out []batch
	for lo := 0; lo < len(ins); lo += size {
		hi := min(lo+size, len(ins))
		out = append(out, batch{wire.AppendEvents(nil, ins[lo:hi]), hi - lo})
	}
	return out
}

// finalize closes an empty node's feed phase. With nothing ingested
// before it, the node gives each event posted next the ID the clean store
// gave it, so its store digest is the clean store's.
func (n *node) finalize() error {
	_, err := n.call("/v1/finalize", "application/json", []byte{}, nil)
	return err
}

// post posts batches in order; each, when set, runs after every
// acknowledged one.
func (n *node) post(batches []batch, each func(k int) error) error {
	for k, b := range batches {
		if _, err := n.call("/v1/ingest", wire.ContentType, b.body, nil); err != nil {
			return err
		}
		if each != nil {
			if err := each(k); err != nil {
				return err
			}
		}
	}
	return nil
}

// copyDir copies a data dir as a kill -9 leaves it: every file's bytes as
// they stand, nothing flushed or closed first.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		to := filepath.Join(dst, strings.TrimPrefix(path, src))
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, data, 0o644)
	})
}
