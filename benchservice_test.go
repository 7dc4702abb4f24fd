package repro

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/service"
)

// measureServiceKernel runs service/submit-decode/json: the node's decode
// of one POST /v1/sessions body, the 37-stop personalize/* session as
// JSON (about 9 MB), read whole through a service.BodyReader at uniqd's
// default 64 MiB limit and decoded into a SubmitRequest.
func measureServiceKernel(name string) (testing.BenchmarkResult, bool) {
	if name != "service/submit-decode/json" {
		return testing.BenchmarkResult{}, false
	}
	in, err := personalizeBenchInput()
	if err != nil {
		return testing.BenchmarkResult{}, false
	}
	body, err := json.Marshal(service.SubmitRequest{User: "user-1", Input: in})
	if err != nil {
		return testing.BenchmarkResult{}, false
	}
	bodies := service.NewBodyReader(64 << 20)
	decode := func() error {
		r := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body))
		var req service.SubmitRequest
		return bodies.DecodeJSON(httptest.NewRecorder(), r, &req)
	}
	if decode() != nil {
		return testing.BenchmarkResult{}, false
	}
	return testing.Benchmark(func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := decode(); err != nil {
				b.Fatal(err)
			}
		}
	}), true
}
