package durable

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"iter"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"rbcsalted/internal/core"
	"rbcsalted/internal/wire"
)

// A state file — a snapshot, or an enrolment file — is the run of records
// that rebuilds a state, in the WAL's own frames:
//
//	magic      8 bytes, stateMagic
//	frame 0    header: version (1 byte), cut (u64), nonce (u64)
//	frame i    record i, encoded as in the WAL, for i = 1..N
//	frame N+1  trailer: the single byte stateEnd
//
// Frames are numbered within the file, so a lost, repeated or reordered
// frame fails the frame reader as it would in the log, and the trailer
// makes a file cut at a frame boundary detectable too. Recovery replays a
// snapshot's records through the same path as the log's. Image blobs are
// sealed by the ImageStore before they reach any record, so a state file
// holds no plaintext PUF image.
const (
	stateMagic   = "RBCSTATE"
	stateVersion = 1
	// stateEnd is the trailer's payload. No record starts with a zero
	// byte: it would be op 0.
	stateEnd = 0
)

// writeState writes a state file holding records to w.
func writeState(w io.Writer, cut, nonce uint64, records iter.Seq[*Record]) error {
	// Write errors stick in bw and surface from Flush.
	bw := bufio.NewWriterSize(w, wire.Chunk)
	bw.WriteString(stateMagic)
	hdr := binary.BigEndian.AppendUint64([]byte{stateVersion}, cut)
	bw.Write(appendFrame(bw.AvailableBuffer(), 0, binary.BigEndian.AppendUint64(hdr, nonce)))
	seq := uint64(1)
	for rec := range records {
		payload, err := rec.Encode()
		if err != nil {
			return err
		}
		bw.Write(appendFrame(bw.AvailableBuffer(), seq, payload))
		seq++
	}
	bw.Write(appendFrame(bw.AvailableBuffer(), seq, []byte{stateEnd}))
	return bw.Flush()
}

// readStateFile decodes the state file at path, passing each record's
// number and payload to apply in file order, and returns the file's cut
// and nonce. A file from before this format (a gob snapshot or enrolment
// file) is converted by readLegacy first.
func readStateFile(path string, apply func(seq uint64, payload []byte) error) (cut, nonce uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, wire.Chunk)
	if magic, _ := r.Peek(len(stateMagic)); string(magic) != stateMagic {
		if r, err = readLegacy(r); err != nil {
			return 0, 0, err
		}
	}
	return decodeState(r, apply)
}

// decodeState is readStateFile for a file in this format.
func decodeState(r *bufio.Reader, apply func(seq uint64, payload []byte) error) (cut, nonce uint64, err error) {
	if magic, err := r.Peek(len(stateMagic)); err != nil || string(magic) != stateMagic {
		return 0, 0, errors.New("durable: state file: no magic")
	}
	r.Discard(len(stateMagic))
	hdr, err := readFrame(r, 0)
	if err == nil && (len(hdr) != 1+8+8 || hdr[0] != stateVersion) {
		err = fmt.Errorf("version %d, %d bytes", hdr[0], len(hdr))
	}
	if err != nil {
		return 0, 0, fmt.Errorf("durable: state file header: %w", err)
	}
	cut, nonce = binary.BigEndian.Uint64(hdr[1:9]), binary.BigEndian.Uint64(hdr[9:17])
	for seq := uint64(1); ; seq++ {
		payload, err := readFrame(r, seq)
		if err != nil {
			return 0, 0, fmt.Errorf("durable: state file record %d: %w", seq, err)
		}
		if len(payload) == 1 && payload[0] == stateEnd {
			if _, err := r.ReadByte(); err != io.EOF {
				return 0, 0, errors.New("durable: state file: bytes after the trailer")
			}
			return cut, nonce, nil
		}
		if err := apply(seq, payload); err != nil {
			return 0, 0, fmt.Errorf("durable: state file record %d: %w", seq, err)
		}
	}
}

// legacyState is the gob layout snapshots had before they became runs of
// records; an enrolment file was the Images map alone. Both are read,
// never written.
type legacyState struct {
	Seq, Nonce uint64
	Images     map[core.ClientID][]byte
	RAKeys     map[core.ClientID][]byte
	RACerts    map[core.ClientID]*core.Certificate
	Sessions   map[core.ClientID]core.Challenge
}

// readLegacy reads a gob snapshot or enrolment file and returns it
// re-encoded as a state file, for decodeState.
func readLegacy(r io.Reader) (*bufio.Reader, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var st legacyState
	if gob.NewDecoder(bytes.NewReader(data)).Decode(&st) != nil {
		st = legacyState{}
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st.Images); err != nil {
			return nil, fmt.Errorf("durable: neither a state file nor a gob one: %w", err)
		}
	}
	var recs []*Record
	for id, blob := range st.Images {
		recs = append(recs, &Record{Op: OpImagePut, ID: id, Blob: blob})
	}
	for id, key := range st.RAKeys {
		recs = append(recs, &Record{Op: OpRAKey, ID: id, Blob: key})
	}
	for id, cert := range st.RACerts {
		recs = append(recs, &Record{Op: OpRACert, ID: id, Cert: cert})
	}
	for id, ch := range st.Sessions {
		recs = append(recs, &Record{Op: OpSessionOpen, ID: id, Challenge: &ch})
	}
	var buf bytes.Buffer
	err = writeState(&buf, st.Seq, st.Nonce, slices.Values(recs))
	return bufio.NewReader(&buf), err
}

// writeStateFile publishes a state file at path atomically: into a temp
// file beside it, fsync, rename into place, fsync the directory. Returns
// the file's size in bytes.
func writeStateFile(path string, cut, nonce uint64, records iter.Seq[*Record]) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return 0, fmt.Errorf("durable: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	err = writeState(tmp, cut, nonce, records)
	if err == nil {
		err = tmp.Sync()
	}
	size, serr := tmp.Seek(0, io.SeekCurrent)
	if err == nil {
		err = serr
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err == nil {
		err = SyncDir(dir)
	}
	if err != nil {
		return 0, fmt.Errorf("durable: write %s: %w", filepath.Base(path), err)
	}
	return size, nil
}

const (
	snapPrefix = "snap-"
	snapSuffix = ".db"
)

func snapName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix)
}

func snapSeqFromName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(snapPrefix):len(name)-len(snapSuffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

func listSnapshots(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if s, ok := snapSeqFromName(e.Name()); ok {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// loadSnapshot replays the newest snapshot that decodes whole into the
// stores and returns its cut (0 when there is none) and how many newer
// ones failed. A snapshot that fails is skipped in favour of the next
// older one, over fresh stores: the WAL still holds everything after the
// older cut unless compaction removed it, which openWAL refuses.
func (s *State) loadSnapshot() (cut uint64, bad int, err error) {
	seqs, err := listSnapshots(s.opts.Dir)
	for i := len(seqs) - 1; i >= 0 && err == nil; i-- {
		cut, nonce, rerr := readStateFile(filepath.Join(s.opts.Dir, snapName(seqs[i])), s.applyPayload)
		if rerr == nil && cut == seqs[i] {
			s.sess.BumpNonce(nonce)
			return cut, bad, nil
		}
		bad++
		err = s.newStores()
	}
	return 0, bad, err
}

// SaveImages writes store's images to path as an enrolment file: a state
// file holding one image record per client, published atomically.
func SaveImages(path string, store *core.ImageStore) error {
	_, err := writeStateFile(path, 0, 0, func(yield func(*Record) bool) {
		for id, blob := range store.Sealed() {
			if !yield(&Record{Op: OpImagePut, ID: id, Blob: blob}) {
				return
			}
		}
	})
	return err
}

// LoadImages reads an enrolment file — SaveImages's, or the gob map
// rbc-enroll wrote before it — into a fresh store under masterKey. The
// key must be the one the images were sealed under; a wrong one surfaces
// on the first Get.
func LoadImages(path string, masterKey [32]byte) (*core.ImageStore, error) {
	store, err := core.NewImageStore(masterKey)
	if err != nil {
		return nil, err
	}
	_, _, err = readStateFile(path, func(_ uint64, payload []byte) error {
		rec, err := DecodeRecord(payload)
		if err == nil && rec.Op != OpImagePut {
			err = fmt.Errorf("%s record in an enrolment file", rec.Op)
		}
		if err == nil {
			store.PutSealed(rec.ID, rec.Blob)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("durable: load %s: %w", path, err)
	}
	return store, nil
}
