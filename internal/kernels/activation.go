package kernels

import "math"

// GELU, sigmoid and tanh share one float32 e^z - 1: Cephes-style range
// reduction z = k·ln2 + r (ln2 split into an exact head and a small tail),
// e^r - 1 = r + r²·p(r) with a degree-5 p, and 2^k built in the exponent
// bits. z is clamped to [expLo, expHi] so 2^k stays a normal number. With
// t = e^z - 1 each activation is one division free of cancellation:
//
//	gelu(x)    = x / (2 + t),  z = -2·sqrt(2/π)·(x + 0.044715x³)
//	sigmoid(x) = 1 / (2 + t),  z = -x
//	tanh(x)    = t / (2 + t),  z = 2x
//
// The scalar functions below are the pure-Go path; simdAct is the vector one.
const (
	expLo, expHi = -87, 88
	log2e        = 1.44269504088896341
	ln2Hi, ln2Lo = 0.693359375, -2.12194440e-4
	exp0, exp1   = 1.9875691500e-4, 1.3981999507e-3
	exp2, exp3   = 8.3334519073e-3, 4.1665795894e-2
	exp4, exp5   = 1.6666665459e-1, 5.0000001201e-1

	// geluM is -2·sqrt(2/π). Below geluLo the result is ~0; clamping x
	// there keeps gelu(-Inf) a tiny negative instead of -Inf/Inf.
	geluM, geluA, geluLo = -1.5957691216057308, 0.044715, -20

	actGelu, actSigmoid, actTanh = 0, 1, 2
)

// simdAct runs activation kind (actGelu, actSigmoid, actTanh) over x into
// o with the CPU's vector unit; o may alias x. The amd64 build sets it at
// start-up when the CPU qualifies; when nil, the scalar loops run.
var simdAct func(kind int, x, o []float32)

func expm1f(z float32) float32 {
	z = min(max(z, expLo), expHi)
	k := float32(math.RoundToEven(float64(z * log2e)))
	r := z - k*ln2Hi - k*ln2Lo
	p := ((((exp0*r+exp1)*r+exp2)*r+exp3)*r+exp4)*r + exp5
	e := math.Float32frombits(uint32(int32(k)+127) << 23)
	return e*(p*r*r+r) + (e - 1)
}

func geluF(x float32) float32 {
	x = max(x, geluLo)
	return x / (2 + expm1f(geluM*(x*x*geluA*x+x)))
}

func sigmoidF(x float32) float32 { return 1 / (2 + expm1f(-x)) }

func tanhF(x float32) float32 {
	t := expm1f(2 * x)
	return t / (2 + t)
}

func actLoop(kind int, x, o []float32, f func(float32) float32) {
	if simdAct != nil {
		simdAct(kind, x, o)
		return
	}
	x = x[:len(o)]
	for i := range o {
		o[i] = f(x[i])
	}
}

func geluLoop(x, o []float32)    { actLoop(actGelu, x, o, geluF) }
func sigmoidLoop(x, o []float32) { actLoop(actSigmoid, x, o, sigmoidF) }
func tanhLoop(x, o []float32)    { actLoop(actTanh, x, o, tanhF) }
