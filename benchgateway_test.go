package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// gatewayBenchProfile is the JSON body of a profile the shape of a real
// one (181 angles, near- and far-field HRIR pairs of 170 taps, about
// 2.5 MB), as the internal/cluster BenchmarkGatewayProfileRead serves it.
func gatewayBenchProfile() ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(service.StoredProfile{User: "user-1", JobID: "j1", Table: realShapedBenchTable()})
	return buf.Bytes(), err
}

// measureGatewayKernel runs gateway/profile-read: one profile read from a
// client through uniqgw's handler to a node serving the pre-encoded
// profile, all on loopback (mirrors BenchmarkGatewayProfileRead).
func measureGatewayKernel(name string) (testing.BenchmarkResult, bool) {
	if name != "gateway/profile-read" {
		return testing.BenchmarkResult{}, false
	}
	body, err := gatewayBenchProfile()
	if err != nil {
		return testing.BenchmarkResult{}, false
	}
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	defer node.Close()
	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Nodes:         []cluster.NodeSpec{{Name: "a", BaseURL: node.URL}},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		return testing.BenchmarkResult{}, false
	}
	defer gw.Close()
	front := httptest.NewServer(gw.Handler())
	defer front.Close()
	client := front.Client()
	read := func() error {
		resp, err := client.Get(front.URL + "/v1/profiles/user-1")
		if err != nil {
			return err
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && n != int64(len(body)) {
			err = fmt.Errorf("read %d of %d bytes", n, len(body))
		}
		return err
	}
	if read() != nil {
		return testing.BenchmarkResult{}, false
	}
	return testing.Benchmark(func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := read(); err != nil {
				b.Fatal(err)
			}
		}
	}), true
}
