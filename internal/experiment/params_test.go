package experiment

import (
	"strings"
	"testing"
	"time"
)

func TestScaleValidateAcceptsPresets(t *testing.T) {
	t.Parallel()
	for name, s := range map[string]Scale{
		"reduced": ReducedScale(),
		"quick":   QuickScale(),
		"full":    FullScale(),
		"tiny":    tinyScale(),
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s scale rejected: %v", name, err)
		}
	}
}

func TestScaleValidateRejectsBadFields(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name   string
		mutate func(*Scale)
		want   string // substring the error must carry
	}{
		{"zero trials", func(s *Scale) { s.Trials = 0 }, "Trials"},
		{"negative trials", func(s *Scale) { s.Trials = -3 }, "Trials"},
		{"zero files", func(s *Scale) { s.NumFiles = 0 }, "NumFiles"},
		{"zero packets", func(s *Scale) { s.PacketsPerFile = 0 }, "PacketsPerFile"},
		{"zero packet size", func(s *Scale) { s.PacketSize = 0 }, "PacketSize"},
		{"negative packet size", func(s *Scale) { s.PacketSize = -1000 }, "PacketSize"},
		{"empty ranges", func(s *Scale) { s.Ranges = nil }, "Ranges"},
		{"non-positive range", func(s *Scale) { s.Ranges = []float64{60, 0} }, "Ranges[1]"},
		{"zero horizon", func(s *Scale) { s.Horizon = 0 }, "Horizon"},
		{"negative loss", func(s *Scale) { s.LossRate = -0.1 }, "LossRate"},
		{"certain loss", func(s *Scale) { s.LossRate = 1.0 }, "LossRate"},
		{"negative mix", func(s *Scale) { s.PureForwarders = -1 }, "node counts"},
		{"no downloaders", func(s *Scale) { s.Stationary, s.MobileDown = 0, 0 }, "downloaders"},
		{"negative workers", func(s *Scale) { s.Workers = -2 }, "Workers"},
		{"negative area", func(s *Scale) { s.AreaSide = -10 }, "AreaSide"},
	}
	for _, tc := range cases {
		s := ReducedScale()
		tc.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted a bad scale", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

func TestScaleValidateBoundaries(t *testing.T) {
	t.Parallel()
	s := ReducedScale()
	s.LossRate = 0 // lossless is a legal sweep point
	s.Workers = 0  // 0 means serial, like 1
	s.AreaSide = 0 // 0 means "paper default area"
	s.Trials = 1
	if err := s.Validate(); err != nil {
		t.Fatalf("boundary values rejected: %v", err)
	}
	s.Horizon = time.Nanosecond // positive, however small, is the caller's call
	if err := s.Validate(); err != nil {
		t.Fatalf("tiny horizon rejected: %v", err)
	}
}
