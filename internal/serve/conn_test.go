package serve

import (
	"errors"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestHalfRequestClosed: a client that sends half a request line and
// then nothing must not hold its connection. The daemon's server sets
// the header and idle deadlines; the test then shortens the header
// deadline so the close it causes is observed at test speed.
func TestHalfRequestClosed(t *testing.T) {
	s, err := New(Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	hs := s.httpServer()
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("server deadlines header=%v idle=%v, want %v and %v",
			hs.ReadHeaderTimeout, hs.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	hs.ReadHeaderTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /heal")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 512)
	for {
		_, err := conn.Read(buf)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatal("server still holds a connection whose request line never finished")
		}
		if err != nil {
			return // closed by the server
		}
	}
}
