package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestServeSmoke is the end-to-end gate behind `make serve-smoke`: build the
// real binary, reject an unusable -max-body-bytes at startup, boot it on an
// ephemeral port, check liveness, submit a request twice (computed then
// cached, byte-identical), and shut it down with SIGTERM expecting a clean
// graceful exit.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the daemon; skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "hgserved")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// A body bound below 1 byte would reject every request: it is a usage
	// error (exit 2) before the daemon listens. A daemon that boots anyway is
	// killed after 10s and fails the exit-code check.
	addrFile := filepath.Join(dir, "addr")
	badCtx, cancelBad := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelBad()
	bad := exec.CommandContext(badCtx, bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-max-body-bytes", "0")
	if out, err := bad.CombinedOutput(); bad.ProcessState == nil || bad.ProcessState.ExitCode() != 2 ||
		!strings.Contains(string(out), "-max-body-bytes") {
		t.Fatalf("-max-body-bytes 0: err %v, want exit 2 naming the flag\n%s", err, out)
	}
	if _, err := os.Stat(addrFile); !os.IsNotExist(err) {
		t.Fatalf("-max-body-bytes 0 wrote an addr file (stat err %v): it must exit before listening", err)
	}

	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-checkpoint-dir", filepath.Join(dir, "cp"),
	)
	var logs bytes.Buffer
	cmd.Stderr = &logs
	cmd.Stdout = &logs
	if err := cmd.Start(); err != nil {
		t.Fatalf("start hgserved: %v", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	stopped := false
	defer func() {
		if stopped {
			return
		}
		cmd.Process.Kill()
		<-exited
	}()

	// The daemon writes its bound address only after Listen succeeds.
	var addr string
	deadline := time.Now().Add(15 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			addr = strings.TrimSpace(string(b))
			break
		}
		select {
		case err := <-exited:
			t.Fatalf("hgserved exited before listening: %v\n%s", err, logs.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no addr file after 15s\n%s", logs.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v / %v", err, resp)
	}
	resp.Body.Close()

	post := func() (*http.Response, []byte) {
		resp, err := http.Post(base+"/v1/partition", "application/json",
			strings.NewReader(`{"benchmark":"ibm01","scale":0.1,"engine":"flat","starts":3,"seed":7}`))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	resp1, body1 := post()
	if resp1.StatusCode != 200 || resp1.Header.Get("X-Hgserved-Cache") != "miss" {
		t.Fatalf("first request: %d disposition %q\n%s",
			resp1.StatusCode, resp1.Header.Get("X-Hgserved-Cache"), body1)
	}
	resp2, body2 := post()
	if resp2.StatusCode != 200 || resp2.Header.Get("X-Hgserved-Cache") != "hit" {
		t.Fatalf("second request: %d disposition %q, want cache hit",
			resp2.StatusCode, resp2.Header.Get("X-Hgserved-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached response differs from computed:\n%s\nvs\n%s", body1, body2)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"hgserved_cache_hits_total 1", "hgserved_cache_misses_total 1"} {
		if !strings.Contains(mbuf.String(), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, mbuf.String())
		}
	}

	// SIGTERM: graceful drain, clean zero exit.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		stopped = true
		if err != nil {
			t.Fatalf("hgserved exited dirty after SIGTERM: %v\n%s", err, logs.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("hgserved did not exit within 30s of SIGTERM\n%s", logs.String())
	}
	if !strings.Contains(logs.String(), "hgserved stopped") {
		t.Fatalf("no graceful-stop log line:\n%s", logs.String())
	}
	fmt.Println("serve-smoke ok:", addr)
}
