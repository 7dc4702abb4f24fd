package sim

import (
	"errors"

	"repro/internal/acoustic"
	"repro/internal/dsp"
	"repro/internal/geom"
	"repro/internal/imu"
	"repro/internal/room"
)

// Measurement is one probe playback captured by the earbuds while the phone
// pauses at a trajectory stop.
type Measurement struct {
	// Time is the probe start time within the session, seconds.
	Time float64
	// Rec holds the synchronized stereo recording.
	Rec acoustic.Recording

	// TruePos and TrueAngleDeg are simulator ground truth, consumed only
	// by evaluation code (the paper's overhead camera).
	TruePos      geom.Vec
	TrueAngleDeg float64
}

// Session is everything a real UNIQ deployment would hand to the pipeline,
// plus evaluation-only ground truth.
type Session struct {
	// Probe is the known source signal the phone plays at every stop.
	Probe []float64
	// SampleRate of all audio, Hz.
	SampleRate float64
	// Measurements are the per-stop recordings in sweep order.
	Measurements []Measurement
	// IMU is the gyro log covering the whole sweep.
	IMU []imu.Sample
	// SystemIR is the separately measured speaker–mic response impulse
	// response used for compensation (§4.6).
	SystemIR []float64
	// SyncOffset is the calibrated playback-chain latency in seconds:
	// recordings see the first arrival at (propagation delay +
	// SyncOffset). Real deployments obtain it from a one-time loopback
	// measurement.
	SyncOffset float64

	// Trajectory is evaluation-only ground truth.
	Trajectory *Trajectory
}

// SessionConfig tunes a simulated measurement session.
type SessionConfig struct {
	// SampleRate for audio, Hz (default 48000).
	SampleRate float64
	// NumStops is how many positions the user pauses at (default 37,
	// ~5 degree spacing).
	NumStops int
	// Quality selects the gesture fidelity.
	Quality GestureQuality
	// Room is the measurement room (default: DefaultConfig).
	Room *room.Config
	// NoiseStd is the recording noise floor (default 0.003).
	NoiseStd float64
	// Gyro is the IMU error model (default imu.DefaultGyro).
	Gyro *imu.GyroModel
	// ProbeSeconds is the chirp length (default 0.04 s).
	ProbeSeconds float64
}

func (c *SessionConfig) fillDefaults() {
	if c.SampleRate <= 0 {
		c.SampleRate = 48000
	}
	if c.NumStops <= 0 {
		c.NumStops = 37
	}
	if c.Room == nil {
		r := room.DefaultConfig()
		c.Room = &r
	}
	if c.NoiseStd == 0 {
		c.NoiseStd = 0.003
	}
	if c.Gyro == nil {
		g := imu.DefaultGyro()
		c.Gyro = &g
	}
	if c.ProbeSeconds <= 0 {
		c.ProbeSeconds = 0.04
	}
}

// RunSession simulates one full measurement gesture for the volunteer and
// returns the session data.
func RunSession(v Volunteer, cfg SessionConfig) (*Session, error) {
	cfg.fillDefaults()
	if cfg.NumStops < 4 {
		return nil, errors.New("sim: need at least 4 stops")
	}
	world, err := v.World(cfg.SampleRate, *cfg.Room)
	if err != nil {
		return nil, err
	}
	gestureRng := v.Rand("gesture")
	traj := NewTrajectory(cfg.Quality, gestureRng)
	hw := acoustic.NewSystemResponse(cfg.SampleRate, v.Rand("hardware"))
	noiseRng := v.Rand("noise")

	probe := dsp.Chirp(150, 0.45*cfg.SampleRate, cfg.ProbeSeconds, cfg.SampleRate)
	s := &Session{
		Probe:      probe,
		SampleRate: cfg.SampleRate,
		SystemIR:   hw.MeasureIR(512),
		SyncOffset: acoustic.LeadInSeconds,
		Trajectory: traj,
	}
	for i := 0; i < cfg.NumStops; i++ {
		t := traj.Duration * (float64(i) + 0.5) / float64(cfg.NumStops)
		pos := traj.Position(t)
		rec, err := world.Record(probe, pos, acoustic.RecordOptions{
			System:   hw,
			NoiseStd: cfg.NoiseStd,
			Rng:      noiseRng,
		})
		if err != nil {
			return nil, err
		}
		s.Measurements = append(s.Measurements, Measurement{
			Time:         t,
			Rec:          rec,
			TruePos:      pos,
			TrueAngleDeg: traj.AngleDeg(t),
		})
	}
	orient := func(t float64) float64 { return geom.Radians(traj.OrientationDeg(t)) }
	s.IMU = cfg.Gyro.Simulate(orient, traj.Duration, v.Rand("imu"))
	return s, nil
}
