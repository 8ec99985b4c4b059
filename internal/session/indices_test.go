package session

import (
	"encoding/json"
	"reflect"
	"testing"
)

// indicesCases are index-set encodings on both sides of the decoder's
// contract: whitespace, null, empty arrays, signed zero, fractions,
// exponents, int overflow and values that are not numbers.
var indicesCases = []string{
	`[]`, `[ ]`, " \t\n[\r1 ,\n2\t] ", `null`, ` null `, `[0]`, `[-0]`, `[7,3,3,1000000]`,
	`[-5]`, `[null]`, `[1,null,2]`, `[9223372036854775807]`, `[-9223372036854775808]`,
	`[9223372036854775808]`, `[-9223372036854775809]`, `[18446744073709551616]`,
	`[99999999999999999999999]`, `[1.5]`, `[1.0]`, `[1e2]`, `[1E+2]`, `[-1e-2]`, `[0.]`,
	`[01]`, `[-01]`, `[-]`, `[+1]`, `["1"]`, `[true]`, `[false]`, `[[1]]`, `[{}]`, `{}`,
	`"1,2"`, `1`, `true`, ``, ` `, `[`, `]`, `[1`, `[1,]`, `[,1]`, `[1 2]`, `[1,,2]`,
	`nul`, `nullx`, `[nul]`, `[1]x`, `[1] [2]`, "[\f1]", `[0x10]`, `[1_000]`, `[NaN]`,
}

// checkIndicesDecode compares UnmarshalJSON, called directly and through
// encoding/json, with encoding/json decoding into []int.
func checkIndicesDecode(t *testing.T, data []byte) {
	t.Helper()
	var want []int
	wantErr := json.Unmarshal(data, &want)
	var viaJSON, direct Indices
	viaErr := json.Unmarshal(data, &viaJSON)
	directErr := direct.UnmarshalJSON(data)
	if (viaErr == nil) != (wantErr == nil) || (directErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: []int err %v, Indices via encoding/json err %v, UnmarshalJSON err %v", data, wantErr, viaErr, directErr)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual([]int(viaJSON), want) || !reflect.DeepEqual([]int(direct), want) {
		t.Fatalf("%q: []int %#v, Indices via encoding/json %#v, UnmarshalJSON %#v", data, want, []int(viaJSON), []int(direct))
	}
}

func TestIndicesDecodeLikeIntSlice(t *testing.T) {
	for _, c := range indicesCases {
		checkIndicesDecode(t, []byte(c))
	}
}

// TestIndicesFieldDecode: inside an event the field decodes as []int
// did, absent and null alike giving a nil set.
func TestIndicesFieldDecode(t *testing.T) {
	for raw, want := range map[string][]int{
		`{"op":"query","indices":[3, 1]}`: {3, 1},
		`{"op":"query","indices":null}`:   nil,
		`{"op":"query"}`:                  nil,
		`{"op":"query","indices":[]}`:     {},
		`{"indices":[2],"op":"update"}`:   {2},
	} {
		var es EventSnapshot
		err := json.Unmarshal([]byte(raw), &es)
		if err != nil || !reflect.DeepEqual([]int(es.Indices), want) {
			t.Fatalf("%s: got %#v, %v; want %#v", raw, []int(es.Indices), err, want)
		}
	}
}

func FuzzIndicesUnmarshal(f *testing.F) {
	for _, c := range indicesCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkIndicesDecode(t, data) })
}
