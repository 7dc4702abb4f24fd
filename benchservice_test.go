package repro

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

// measureServiceKernel runs the node's two multi-megabyte JSON codecs on
// the 37-stop personalize/* volunteer (1, 777):
//
//	service/submit-decode/json  one POST /v1/sessions body (about 9 MB),
//	                            read whole through a service.BodyReader at
//	                            uniqd's default 64 MiB limit and decoded by
//	                            service.DecodeSubmit, as uniqd does
//	service/profile-write/json  the solved profile (about 2.6 MB of JSON)
//	                            written by service.WriteProfileJSON to
//	                            io.Discard, as uniqd answers a profile read
func measureServiceKernel(name string) (testing.BenchmarkResult, bool) {
	var op func() error
	switch name {
	case "service/submit-decode/json":
		in, err := personalizeBenchInput()
		if err != nil {
			return testing.BenchmarkResult{}, false
		}
		body, err := json.Marshal(service.SubmitRequest{User: "user-1", Input: in})
		if err != nil {
			return testing.BenchmarkResult{}, false
		}
		bodies := service.NewBodyReader(64 << 20)
		op = func() error {
			r := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body))
			buf, err := bodies.Read(httptest.NewRecorder(), r)
			if err != nil {
				return err
			}
			var req service.SubmitRequest
			_, err = service.DecodeSubmit(buf, &req)
			return err
		}
	case "service/profile-write/json":
		in, err := personalizeBenchInput()
		if err != nil {
			return testing.BenchmarkResult{}, false
		}
		res, err := core.Personalize(in, core.PipelineOptions{})
		if err != nil {
			return testing.BenchmarkResult{}, false
		}
		p := &service.StoredProfile{
			User: "user-1", JobID: "0123456789abcdef", CreatedUnixMS: 1700000000000,
			HeadParams: res.HeadParams, MeanResidualDeg: res.MeanResidualDeg,
			GestureOK: res.Gesture.OK, GestureReason: res.Gesture.Reason, Table: res.Table,
		}
		op = func() error { return service.WriteProfileJSON(io.Discard, p) }
	default:
		return testing.BenchmarkResult{}, false
	}
	if op() != nil {
		return testing.BenchmarkResult{}, false
	}
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
	}), true
}
