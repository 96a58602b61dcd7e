package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"hgpart/internal/netlist"
)

// BenchmarkPartitionHit measures an in-process cache hit through the
// partition handler on a quarter-scale ibm01-like inline body (about 74 KB,
// the serve-hit workload's hot body), after one miss has filled the cache.
func BenchmarkPartitionHit(b *testing.B) {
	var text bytes.Buffer
	if err := netlist.WriteHGR(&text, quarterIBM01(b)); err != nil {
		b.Fatal(err)
	}
	hgr, err := json.Marshal(text.String())
	if err != nil {
		b.Fatal(err)
	}
	body := []byte(fmt.Sprintf(`{"hgr":%s,"label":"hot0","engine":"flat","starts":1,"seed":7}`, hgr))
	srv := New(DefaultConfig())
	defer srv.Close()
	h := srv.Handler()
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/partition", bytes.NewReader(body)))
		return rec
	}
	if rec := serve(); rec.Code != http.StatusOK {
		b.Fatalf("warm-up: status %d, body %s", rec.Code, rec.Body)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(); rec.Header().Get("X-Hgserved-Cache") != "hit" {
			b.Fatalf("status %d, disposition %q", rec.Code, rec.Header().Get("X-Hgserved-Cache"))
		}
	}
}
