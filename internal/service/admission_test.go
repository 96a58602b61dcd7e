package service_test

// Admission hardening tests: oversized bodies get a structured 413 carrying
// the configured limit, oversized instances get a structured 422 carrying
// the cap they exceeded, and every drain-time 503 tells well-behaved clients
// when to come back via Retry-After.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hgpart/internal/service"
)

func TestOversizedBodyGets413WithLimit(t *testing.T) {
	_, hs := testServer(t, func(c *service.Config) { c.MaxBodyBytes = 1024 })
	big := `{"hgr":"` + strings.Repeat("x", 4096) + `"}`

	for _, route := range []string{"/v1/partition", "/v1/trace"} {
		resp, err := http.Post(hs.URL+route, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatalf("POST %s: %v", route, err)
		}
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("%s: decode 413 body: %v", route, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413", route, resp.StatusCode)
		}
		if lim, _ := doc["limit_bytes"].(float64); lim != 1024 {
			t.Fatalf("%s: limit_bytes = %v, want 1024 (doc %v)", route, doc["limit_bytes"], doc)
		}
		if msg, _ := doc["error"].(string); !strings.Contains(msg, "1024") {
			t.Fatalf("%s: error %q should name the configured limit", route, msg)
		}
	}
}

func TestOversizedInstanceGets422WithCap(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*service.Config)
		field  string
	}{
		{"vertices", func(c *service.Config) { c.MaxVertices = 10 }, "limit_vertices"},
		{"pins", func(c *service.Config) { c.MaxPins = 10 }, "limit_pins"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, hs := testServer(t, tc.mutate)
			resp, body := post(t, hs, smallReq)
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("status %d, want 422; body %s", resp.StatusCode, body)
			}
			var doc map[string]any
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatalf("decode 422 body: %v", err)
			}
			if lim, _ := doc[tc.field].(float64); lim != 10 {
				t.Fatalf("%s = %v, want 10 (doc %v)", tc.field, doc[tc.field], doc)
			}
		})
	}
}

func TestDrainResponsesCarryRetryAfter(t *testing.T) {
	srv, hs := testServer(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, body := post(t, hs, smallReq)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 while draining; body %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want %q on every 503", ra, "1")
	}
}

// postRoute posts body to route and returns the status and response body.
func postRoute(t *testing.T, hs *httptest.Server, route, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(hs.URL+route, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", route, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s response: %v", route, err)
	}
	return resp.StatusCode, b
}

// The byte limit covers the whole body, not just its first JSON value: a
// small valid request padded with whitespace past the limit is a 413.
func TestBodyLimitCoversTrailingBytes(t *testing.T) {
	_, hs := testServer(t, func(c *service.Config) { c.MaxBodyBytes = 1024 })
	padded := `{"benchmark":"mcnc:prim2","scale":0.1,"starts":1}` + strings.Repeat(" ", 4000)
	for _, route := range []string{"/v1/partition", "/v1/trace"} {
		code, body := postRoute(t, hs, route, padded)
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413; body %s", route, code, body)
		}
		var doc map[string]any
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("%s: decode 413 body: %v", route, err)
		}
		if lim, _ := doc["limit_bytes"].(float64); lim != 1024 {
			t.Fatalf("%s: limit_bytes = %v, want 1024", route, doc["limit_bytes"])
		}
	}
}

// A body is exactly one JSON value: trailing whitespace and a final newline
// are accepted, any other trailing byte is a 400. The body sets no starts,
// which /v1/trace refuses.
func TestTrailingDataAfterRequest(t *testing.T) {
	_, hs := testServer(t, nil)
	const req = `{"benchmark":"ibm01","scale":0.1,"engine":"flat","seed":3}`
	cases := []struct {
		name, body string
		want       int
	}{
		{"final newline", req + "\n", http.StatusOK},
		{"trailing whitespace", req + " \t\r\n  \n", http.StatusOK},
		{"second value", req + ` {}`, http.StatusBadRequest},
		{"trailing garbage", req + "\nx", http.StatusBadRequest},
	}
	for _, route := range []string{"/v1/partition", "/v1/trace"} {
		for _, tc := range cases {
			code, body := postRoute(t, hs, route, tc.body)
			if code != tc.want {
				t.Fatalf("%s %s: status %d, want %d; body %s", route, tc.name, code, tc.want, body)
			}
			if tc.want == http.StatusBadRequest && !strings.Contains(string(body), "trailing data") {
				t.Fatalf("%s %s: body %s should name the trailing data", route, tc.name, body)
			}
		}
	}
}

// Both POST routes share one front end, so a bad request gets the same
// status and the same error document from either.
func TestRoutesShareFrontEndErrors(t *testing.T) {
	_, hs := testServer(t, func(c *service.Config) {
		c.MaxBodyBytes = 1024
		c.MaxVertices = 100
	})
	cases := []struct {
		name, body string
		want       int
	}{
		{"empty body", ``, http.StatusBadRequest},
		{"malformed json", `{"benchmark":`, http.StatusBadRequest},
		{"unknown field", `{"benchmark":"ibm01","engine":"flat","turbo":true}`, http.StatusBadRequest},
		{"trailing data", `{"benchmark":"ibm01","engine":"flat"}]`, http.StatusBadRequest},
		{"no source", `{"engine":"flat"}`, http.StatusBadRequest},
		{"bad tolerance", `{"benchmark":"ibm01","engine":"flat","tolerance":1.5}`, http.StatusBadRequest},
		{"unknown benchmark", `{"benchmark":"ibm99","engine":"flat"}`, http.StatusBadRequest},
		{"malformed hgr", `{"hgr":"3 2 11\n1 1 2\n","engine":"flat"}`, http.StatusBadRequest},
		{"too many vertices", `{"benchmark":"ibm01","scale":0.1,"engine":"flat"}`, http.StatusUnprocessableEntity},
		{"too large", `{"hgr":"` + strings.Repeat("x", 2048) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pc, pb := postRoute(t, hs, "/v1/partition", tc.body)
			tc2, tb := postRoute(t, hs, "/v1/trace", tc.body)
			if pc != tc.want || tc2 != tc.want {
				t.Fatalf("status partition %d, trace %d, want %d (%s | %s)", pc, tc2, tc.want, pb, tb)
			}
			if !bytes.Equal(pb, tb) {
				t.Fatalf("error documents differ:\npartition %s\ntrace     %s", pb, tb)
			}
		})
	}
}
