package service

// The body-digest memo must be invisible: every request answers with the
// same status, body and headers whether the memo or the full front end
// serves it, and the memo never outgrows the cache's own bounds.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// forgetBodies drops every remembered request body, so the next request
// takes the full front end.
func (c *Cache) forgetBodies() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		el.Value.(*cacheEntry).hasReq = false
	}
	clear(c.bodies)
}

func (c *Cache) rememberedBodies() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.bodies)
}

// memoServer boots a Server behind httptest with the memo test's bounds.
func memoServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CacheEntries = 2
	cfg.MaxBodyBytes = 4096
	cfg.MaxVertices = 5000
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

// memoResponse is what a client can observe of one response.
type memoResponse struct {
	code   int
	header http.Header
	body   []byte
}

func memoPost(t *testing.T, hs *httptest.Server, body, deadline string) memoResponse {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/partition", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if deadline != "" {
		req.Header.Set(deadlineHeader, deadline)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/partition: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Header.Del("Date")
	return memoResponse{code: resp.StatusCode, header: resp.Header, body: b}
}

// TestBodyMemoMatchesFullPath replays one request sequence on two servers
// with the same config: on one every request takes the full front end (its
// memo is cleared first), the other keeps its memo. Each pair of responses
// must agree on status, every header and body.
func TestBodyMemoMatchesFullPath(t *testing.T) {
	full, fullHS := memoServer(t)
	memo, memoHS := memoServer(t)

	const base = `{"benchmark":"ibm01","scale":0.1,"engine":"flat","starts":3,"seed":7}`
	spaced := strings.ReplaceAll(base, ",", " ,\n ") + "\n"
	inline := func(label string) string {
		return `{"hgr":"4 6\n1 2\n2 3 4\n4 5 6\n6 1\n","label":"` + label + `","engine":"flat","starts":2,"seed":3}`
	}
	async := strings.TrimSuffix(base, "}") + `,"async":true}`
	past := fmt.Sprint(time.Now().Add(-time.Second).UnixMilli())

	steps := []struct {
		name, body, deadline string
		wantCode             int
		wantCache            string
		memoized             bool // the memo server must know the body beforehand
	}{
		{"first sight", base, "", 200, "miss", false},
		{"repeated hit", base, "", 200, "hit", true},
		{"repeated hit again", base, "", 200, "hit", true},
		{"whitespace variant", spaced, "", 200, "hit", false},
		{"whitespace variant repeated", spaced, "", 200, "hit", true},
		{"label a", inline("a"), "", 200, "miss", false},
		{"label b shares a's key", inline("b"), "", 200, "hit", false},
		{"label b repeated", inline("b"), "", 200, "hit", true},
		{"async variant", async, "", 200, "hit", false},
		{"async variant repeated", async, "", 200, "hit", true},
		// An entry remembers only its latest body.
		{"base after its variants", base, "", 200, "hit", false},
		{"malformed json", `{"benchmark":`, "", 400, "", false},
		{"unknown field", `{"benchmark":"ibm01","turbo":true}`, "", 400, "", false},
		{"trailing data", base + "{}", "", 400, "", false},
		{"too large", base + strings.Repeat(" ", 5000), "", 413, "", false},
		{"too many vertices", `{"benchmark":"ibm01","engine":"flat","starts":1}`, "", 422, "", false},
		{"too many vertices repeated", `{"benchmark":"ibm01","engine":"flat","starts":1}`, "", 422, "", false},
		{"expired deadline", base, past, 504, "", true},
		{"malformed deadline", base, "not-a-timestamp", 400, "", true},
		{"memoized again", base, "", 200, "hit", true},
		// Two fresh keys evict both cached reports (CacheEntries = 2), and
		// their remembered bodies with them.
		{"evict 1", strings.Replace(base, `"seed":7`, `"seed":8`, 1), "", 200, "miss", false},
		{"evict 2", strings.Replace(base, `"seed":7`, `"seed":9`, 1), "", 200, "miss", false},
		{"evicted report", base, "", 200, "miss", false},
		{"re-memoized", base, "", 200, "hit", true},
	}
	for _, st := range steps {
		full.cache.forgetBodies()
		_, known := memo.cache.keyForBody(sha256.Sum256([]byte(st.body)))
		if known != st.memoized {
			t.Fatalf("%s: memo knows the body = %v, want %v", st.name, known, st.memoized)
		}
		f := memoPost(t, fullHS, st.body, st.deadline)
		m := memoPost(t, memoHS, st.body, st.deadline)
		if f.code != st.wantCode || f.header.Get("X-Hgserved-Cache") != st.wantCache {
			t.Fatalf("%s: full path gave %d %q, want %d %q; body %s",
				st.name, f.code, f.header.Get("X-Hgserved-Cache"), st.wantCode, st.wantCache, f.body)
		}
		if m.code != f.code || !bytes.Equal(m.body, f.body) {
			t.Fatalf("%s: memo %d %s\nfull %d %s", st.name, m.code, m.body, f.code, f.body)
		}
		if fmt.Sprint(m.header) != fmt.Sprint(f.header) {
			t.Fatalf("%s: headers differ:\nmemo %v\nfull %v", st.name, m.header, f.header)
		}
	}

	for _, srv := range []*Server{full, memo} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := srv.Drain(ctx)
		cancel()
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	full.cache.forgetBodies()
	f, m := memoPost(t, fullHS, base, ""), memoPost(t, memoHS, base, "")
	if f.code != http.StatusServiceUnavailable || m.code != f.code || !bytes.Equal(m.body, f.body) ||
		fmt.Sprint(m.header) != fmt.Sprint(f.header) {
		t.Fatalf("draining: memo %d %v %s\nfull %d %v %s", m.code, m.header, m.body, f.code, f.header, f.body)
	}
}

// A flood of distinct bodies that all resolve to one key holds one digest,
// and distinct keys never hold more digests than the cache holds entries.
func TestBodyMemoBoundedUnderFlood(t *testing.T) {
	srv, hs := memoServer(t)
	const base = `{"benchmark":"ibm01","scale":0.1,"engine":"flat","starts":1,"seed":5}`
	for i := 0; i < 40; i++ {
		body := base + strings.Repeat(" ", i)
		if r := memoPost(t, hs, body, ""); r.code != 200 {
			t.Fatalf("variant %d: status %d, body %s", i, r.code, r.body)
		}
		if n := srv.cache.rememberedBodies(); n != 1 {
			t.Fatalf("after %d variants of one key the memo holds %d digests, want 1", i+1, n)
		}
	}

	c := NewCache(4, 0)
	for i := 0; i < 20; i++ {
		key := fmt.Sprint("key", i)
		c.Put(key, []byte("report"))
		c.rememberBody(sha256.Sum256([]byte(key)), key)
		if n, entries := c.rememberedBodies(), c.Stats().Entries; n > entries {
			t.Fatalf("memo holds %d digests for %d cache entries", n, entries)
		}
	}
	if _, ok := c.keyForBody(sha256.Sum256([]byte("key0"))); ok {
		t.Fatal("an evicted entry's body is still remembered")
	}
	if key, ok := c.keyForBody(sha256.Sum256([]byte("key19"))); !ok || key != "key19" {
		t.Fatalf("the newest body maps to %q, %v; want key19", key, ok)
	}
	c.rememberBody(sha256.Sum256([]byte("uncached")), "uncached")
	if _, ok := c.keyForBody(sha256.Sum256([]byte("uncached"))); ok {
		t.Fatal("a body was remembered for a key that is not cached")
	}
}
