package flaglist

import (
	"math"
	"reflect"
	"testing"
)

func TestParse(t *testing.T) {
	cases := []struct {
		in      string
		parse   func(string) (any, error)
		want    any
		wantErr bool
	}{
		{" 2, 3 ,5", ints, []int{2, 3, 5}, false},
		{"4,,-1,", ints, []int{4, -1}, false},
		{"7", ints, []int{7}, false},
		{"x", ints, nil, true},
		{"2,3x", ints, nil, true},
		{"1.5", ints, nil, true},
		{"", ints, nil, true},
		{" , ,", ints, nil, true},
		{"10, -9223372036854775808 ,9223372036854775807", int64s, []int64{10, math.MinInt64, math.MaxInt64}, false},
		{"9223372036854775808", int64s, nil, true},
		{"0.5, 1,1e6", floats, []float64{0.5, 1, 1e6}, false},
		{"0.5,abc", floats, nil, true},
		{",", floats, nil, true},
	}
	for _, c := range cases {
		got, err := c.parse(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("Parse(%q) = %v, want an error", c.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("Parse(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

func ints(s string) (any, error)   { return Parse[int](s) }
func int64s(s string) (any, error) { return Parse[int64](s) }
func floats(s string) (any, error) { return Parse[float64](s) }
