package service

// In-package tests for the DESIGN.md §16 plumbing that has no public seam:
// the peer probe's body bound and the integrity/deadline header helpers.

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// peerServing builds a PeerSet probing one fake sibling that answers every
// cache lookup with body (integrity header included), bounded at maxBody.
func peerServing(t *testing.T, body []byte, maxBody int64) *PeerSet {
	t.Helper()
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(integrityHeader, bodySHA(body))
		w.Write(body)
	}))
	t.Cleanup(peer.Close)
	p := NewPeerSet([]string{strings.TrimPrefix(peer.URL, "http://")},
		time.Second, nil, NewMetrics(), discardLogger())
	p.maxBody = maxBody
	return p
}

// The satellite regression: a peer streaming more than the body bound is a
// miss — never a truncated "hit" — while a body exactly at the bound passes.
func TestPeerLookupBoundsResponseBody(t *testing.T) {
	const key = "deadbeefdeadbeef"
	oversized := peerServing(t, bytes.Repeat([]byte("x"), 4096), 1024)
	if _, ok := oversized.Lookup(context.Background(), key); ok {
		t.Fatal("a 4096-byte body against a 1024-byte bound must be a miss")
	}

	exact := bytes.Repeat([]byte("y"), 1024)
	fits := peerServing(t, exact, 1024)
	got, ok := fits.Lookup(context.Background(), key)
	if !ok || !bytes.Equal(got, exact) {
		t.Fatalf("a body exactly at the bound must be a verbatim hit (ok=%v, %d bytes)", ok, len(got))
	}
}

func TestIntegrityHelpers(t *testing.T) {
	body := []byte("report bytes")
	h := http.Header{}
	if !integrityOK(h, body) {
		t.Fatal("a missing envelope header must pass (mixed-version rollout)")
	}
	h.Set(integrityHeader, bodySHA(body))
	if !integrityOK(h, body) {
		t.Fatal("a matching sha256 envelope must pass")
	}
	if integrityOK(h, []byte("report byteZ")) {
		t.Fatal("a mismatched body must fail the envelope")
	}
}

func TestParseDeadlineHeader(t *testing.T) {
	if _, ok, err := parseDeadline(http.Header{}); ok || err != nil {
		t.Fatalf("absent header: ok=%v err=%v, want no deadline and no error", ok, err)
	}
	h := http.Header{}
	h.Set(deadlineHeader, "1754000000000")
	dl, ok, err := parseDeadline(h)
	if err != nil || !ok || dl.UnixMilli() != 1754000000000 {
		t.Fatalf("valid header: dl=%v ok=%v err=%v", dl, ok, err)
	}
	h.Set(deadlineHeader, "soon")
	if _, _, err := parseDeadline(h); err == nil || !strings.Contains(err.Error(), "unix milliseconds") {
		t.Fatalf("malformed header error %v should name the expected format", err)
	}
}
