"""STM edge cases: read-only commits, re-reads, read-for-write
semantics, lock placement."""

import pytest

from repro.common.params import FenceDesign, MachineParams
from repro.core import isa as ops
from repro.sim.machine import Machine
from repro.stm.tlrw import TlrwStm
from repro.stm.txn import Txn


def make(cores=1, design=FenceDesign.WS_PLUS, colocate=0.5):
    params = MachineParams(num_cores=cores, num_banks=max(2, cores))\
        .with_design(design)
    m = Machine(params, seed=31)
    stm = TlrwStm(m.alloc, cores, colocate_prob=colocate)
    return m, stm


def run(m, gen_fn):
    m.spawn(gen_fn)
    return m.run()


def test_read_only_commit_has_no_commit_fence():
    m, stm = make()
    x = m.alloc.word()
    stm.register_region(x, 1)

    def t(ctx):
        txn = Txn(stm, 0)
        yield from txn.read(x)
        yield from txn.commit()

    run(m, t)
    # one read-barrier fence only — commit adds none for pure readers
    assert m.stats.total_wf + m.stats.total_sf == 1


def test_repeated_reads_acquire_once():
    m, stm = make()
    x = m.alloc.word()
    stm.register_region(x, 1)

    def t(ctx):
        txn = Txn(stm, 0)
        for _ in range(5):
            yield from txn.read(x)
        yield from txn.commit()

    run(m, t)
    assert m.stats.total_wf + m.stats.total_sf == 1  # single barrier


def test_read_after_write_skips_reader_flag():
    m, stm = make()
    x = m.alloc.word()
    stm.register_region(x, 1)

    def t(ctx):
        txn = Txn(stm, 0)
        yield from txn.write(x, 5)
        v = yield from txn.read(x)   # own write lock covers the read
        yield from txn.commit()
        yield ops.Note(("v", v))

    run(m, t)
    lock = stm.lock_for(x)
    assert m.image.peek(lock.reader_flags[0]) == 0
    assert m.cores[0].notes[0][1] == ("v", 5)


def test_read_for_write_records_undo():
    m, stm = make()
    x = m.alloc.word()
    m.image.poke(x, 40)
    stm.register_region(x, 1)

    def t(ctx):
        txn = Txn(stm, 0)
        v = yield from txn.read_for_write(x)
        yield from txn.write(x, v + 2)
        yield from txn.abort()       # must restore 40

    run(m, t)
    assert m.image.peek(x) == 40


def test_abort_undoes_in_reverse_order():
    m, stm = make()
    x = m.alloc.word()
    m.image.poke(x, 1)
    stm.register_region(x, 1)

    def t(ctx):
        txn = Txn(stm, 0)
        yield from txn.write(x, 2)
        yield from txn.write(x, 3)   # same word twice: one undo entry
        yield from txn.abort()

    run(m, t)
    assert m.image.peek(x) == 1


def test_register_region_is_idempotent():
    m, stm = make()
    x = m.alloc.word()
    stm.register_region(x, 1)
    lock1 = stm.lock_for(x)
    stm.register_region(x, 1)
    assert stm.lock_for(x) is lock1


def test_colocated_lock_shares_home_bank():
    m, stm = make(colocate=1.0)
    x = m.alloc.word()
    stm.register_region(x, 1)
    lock = stm.lock_for(x)
    bank = m.amap.home_bank(x)
    assert m.amap.home_bank(lock.writer_addr) == bank
    assert all(m.amap.home_bank(f) == bank for f in lock.reader_flags)


def test_noncolocated_lock_on_private_lines():
    m, stm = make(colocate=0.0)
    x = m.alloc.word()
    stm.register_region(x, 1)
    lock = stm.lock_for(x)
    # lock words never share a line with the data word
    assert all(not m.amap.same_line(x, f) for f in lock.reader_flags)
    assert not m.amap.same_line(x, lock.writer_addr)


def test_writer_field_encodes_tid_plus_one():
    m, stm = make(cores=2)
    x = m.alloc.word()
    stm.register_region(x, 1)

    def t(ctx):
        txn = Txn(stm, 0)
        yield from txn.write(x, 1)
        yield ops.Compute(200)
        held = yield ops.Load(stm.lock_for(x).writer_addr)
        yield ops.Note(("held", held))
        yield from txn.commit()

    run(m, t)
    assert m.cores[0].notes[0][1] == ("held", 1)  # tid 0 -> value 1
    assert m.image.peek(stm.lock_for(x).writer_addr) == 0


# ----------------------------------------------------------------------
# lazy lock table: addresses fixed at set-up, objects built on first use
# ----------------------------------------------------------------------

class _EagerStm(TlrwStm):
    """Reference oracle: builds every lock's addresses eagerly, word by
    word, drawing the RNG and moving the allocator exactly as the lazy
    table's set-up must."""

    def register_region(self, base, nwords):
        amap = self.alloc.amap
        wb = amap.word_bytes
        wpl = amap.words_per_line
        total = self._lock_words()
        stride = wpl // self.FLAGS_PER_LINE
        eager = self.__dict__.setdefault("eager", {})
        for i in range(nwords):
            word = base + i * wb
            if word in eager:
                continue
            if self._rng.random() < self.colocate_prob:
                lock_base = self.alloc.alloc_same_bank(word, total)
            else:
                lock_base = self.alloc.alloc_line(total)
            flags = [lock_base + t * stride * wb
                     for t in range(self.num_threads)]
            eager[word] = (flags, lock_base + (total - wpl) * wb)


def _set_up(monkeypatch, stm_cls, name, cores, colocate):
    from repro.workloads import ustm as ustm_mod
    from repro.workloads.base import REGISTRY, load_all_workloads

    load_all_workloads()
    built = []

    def make_stm(alloc, n):
        built.append(stm_cls(alloc, n, colocate_prob=colocate))
        return built[-1]

    monkeypatch.setattr(ustm_mod, "TlrwStm", make_stm)
    params = MachineParams().with_cores(cores)\
        .with_design(FenceDesign.WS_PLUS)
    m = Machine(params, seed=12345)
    REGISTRY[name](scale=0.25).setup(m)
    (stm,) = built
    return m, stm


@pytest.mark.parametrize("colocate", [0.0, 0.35, 1.0])
@pytest.mark.parametrize("cores", [2, 8])
@pytest.mark.parametrize("name", ["Tree", "Counter"])
def test_lazy_lock_addresses_match_eager_placement(monkeypatch, name,
                                                   cores, colocate):
    m_ref, ref = _set_up(monkeypatch, _EagerStm, name, cores, colocate)
    m, stm = _set_up(monkeypatch, TlrwStm, name, cores, colocate)
    assert m.alloc._cursor == m_ref.alloc._cursor
    assert set(stm.locks.bases) == set(ref.eager)
    assert not stm.locks  # nothing built before the run looks
    for word, (flags, writer_addr) in ref.eager.items():
        lock = stm.lock_for(word)
        assert lock.reader_flags == flags
        assert lock.writer_addr == writer_addr


def test_lazy_lock_is_built_once():
    m, stm = make(cores=4)
    x = m.alloc.word()
    stm.register_region(x, 1)
    assert stm.lock_for(x) is stm.lock_for(x)
    assert stm.locks[x] is stm.lock_for(x)


def test_unregistered_word_has_no_lock():
    m, stm = make()
    x = m.alloc.word()
    stm.register_region(x, 1)
    with pytest.raises(KeyError):
        stm.lock_for(x + m.amap.word_bytes)
    with pytest.raises(KeyError):
        stm.locks[x + m.amap.word_bytes]
