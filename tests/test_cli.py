import gc
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tagsimp.align import build_vocab
from tagsimp.apply import default_lexicon
from tagsimp import cli
from tagsimp.cli import BATCH_SIZE, main
from tagsimp.core import TagVocabulary, TokenSeq, detokenize, tokenize
from tagsimp.engine import InferenceConfig, simplify_batch
from tagsimp.external import ExternalTaggerClient
from tagsimp.metrics import EvalRecord, evaluate
from tagsimp.stat_tagger import StatTaggerModel
from tagsimp.tagger import CorpusOracleBackend, OracleBackend
from tagsimp.tune import tune, tune_log_tsv

PEER = Path(__file__).parent / "peer_main.py"

CORPUS = [
    ("the small cat sat quietly on the mat .", "the cat sat on the mat ."),
    ("he quickly wrote a very long letter .", "he wrote a letter ."),
    ("a b c", "a b c"),
]


DEV = "the small cat sat quietly .\tthe cat sat .\ndogs bark .\tdogs bark .\n"


@pytest.fixture()
def workdir(tmp_path):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(
        "".join(f"{s}\t{t}\n" for s, t in CORPUS), encoding="utf-8"
    )
    vocab_path = tmp_path / "tags.vocab"
    main(["build-vocab", str(corpus), str(vocab_path), "--capacity", "100"])
    return tmp_path, corpus, vocab_path


def train_stat(tmp_path, corpus, vocab_path):
    model_path = tmp_path / "m.model"
    assert main(["--seed", "3", "train-stat", str(corpus), str(model_path),
                 "--vocab", str(vocab_path), "--epochs", "4", "--lr", "0.5",
                 "--hash-dim", "4096"]) == 0
    return model_path


class TestPreprocess:
    def test_bracket_filter_single_column(self, tmp_path):
        src = tmp_path / "in.txt"
        out = tmp_path / "out.txt"
        src.write_text("a -LRB- b -RRB- c\n", encoding="utf-8")
        assert main(["preprocess", str(src), str(out), "--filter-brackets"]) == 0
        assert out.read_text(encoding="utf-8") == "a c\n"

    def test_pair_normalization(self, tmp_path):
        src = tmp_path / "in.tsv"
        out = tmp_path / "out.tsv"
        src.write_text("a  b\tc   d\nx\ty\tz\n", encoding="utf-8")
        assert main(["preprocess", str(src), str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "a b\tc d\n"

    def test_without_filter_keeps_brackets(self, tmp_path):
        src = tmp_path / "in.txt"
        out = tmp_path / "out.txt"
        src.write_text("a -LRB- b -RRB- c\n", encoding="utf-8")
        assert main(["preprocess", str(src), str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "a -LRB- b -RRB- c\n"


class TestBuildVocab:
    def test_matches_library(self, workdir):
        tmp_path, corpus, vocab_path = workdir
        pairs = [(tokenize(s), tokenize(t)) for s, t in CORPUS]
        expected = build_vocab(pairs, capacity=100)
        assert vocab_path.read_bytes() == expected.to_bytes()


class TestTrainAndSimplify:
    def test_stat_backend_end_to_end(self, workdir):
        tmp_path, corpus, vocab_path = workdir
        model_path = tmp_path / "m.model"
        code = main([
            "--seed", "3", "train-stat", str(corpus), str(model_path),
            "--vocab", str(vocab_path), "--epochs", "4", "--lr", "0.5",
            "--hash-dim", "4096",
        ])
        assert code == 0

        inputs = tmp_path / "in.txt"
        inputs.write_text("".join(s + "\n" for s, _ in CORPUS), encoding="utf-8")
        out_path = tmp_path / "out.txt"
        trace_path = tmp_path / "trace.jsonl"
        code = main([
            "simplify", str(inputs), str(out_path),
            "--backend", "stat", "--vocab", str(vocab_path),
            "--model", str(model_path), "--trace", str(trace_path),
        ])
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(CORPUS)
        traces = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert all("steps" in t for t in traces)

    def test_gate_above_one_copies_input(self, workdir):
        tmp_path, corpus, vocab_path = workdir
        inputs = tmp_path / "in.txt"
        inputs.write_text("the small cat sat .\nplain sentence here .\n", encoding="utf-8")
        out_path = tmp_path / "out.txt"
        code = main([
            "simplify", str(inputs), str(out_path),
            "--backend", "oracle", "--vocab", str(vocab_path),
            "--min-edit-prob", "1.1",
        ])
        assert code == 0
        assert out_path.read_text(encoding="utf-8") == inputs.read_text(encoding="utf-8")

    def test_oracle_with_references_reaches_them(self, workdir):
        tmp_path, corpus, vocab_path = workdir
        inputs = tmp_path / "in.txt"
        refs = tmp_path / "refs.txt"
        inputs.write_text("".join(s + "\n" for s, _ in CORPUS), encoding="utf-8")
        refs.write_text("".join(t + "\n" for _, t in CORPUS), encoding="utf-8")
        out_path = tmp_path / "out.txt"
        code = main([
            "simplify", str(inputs), str(out_path),
            "--backend", "oracle", "--vocab", str(vocab_path),
            "--references", str(refs),
        ])
        assert code == 0
        assert out_path.read_text(encoding="utf-8") == refs.read_text(encoding="utf-8")

    def test_config_file_and_override(self, workdir, tmp_path):
        _, corpus, vocab_path = workdir
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(InferenceConfig(keep_bias=-0.5, max_iterations=2).to_text())
        inputs = tmp_path / "in.txt"
        inputs.write_text("a b\n", encoding="utf-8")
        out_path = tmp_path / "o.txt"
        code = main([
            "simplify", str(inputs), str(out_path),
            "--backend", "oracle", "--vocab", str(vocab_path),
            "--config", str(cfg_path), "--min-edit-prob", "1.1",
        ])
        assert code == 0
        assert out_path.read_text() == "a b\n"


class TestChunkedSimplify:
    """`simplify` runs in chunks of BATCH_SIZE lines, with the bytes of one batch."""

    WORDS = ["now", "then", "here", "there", "again", "too", "also"]

    def lines(self, poison_at=None):
        lines = [f"{CORPUS[i % 3][0]} {self.WORDS[i % 7]}" for i in range(300)]
        if poison_at is not None:
            lines[poison_at] = "a poison line"
        assert len(lines) > 2 * BATCH_SIZE
        return lines

    def run_cli(self, tmp_path, capsys, lines, backend_args):
        inputs, out, trace = tmp_path / "in.txt", tmp_path / "out.txt", tmp_path / "trace.jsonl"
        inputs.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        capsys.readouterr()
        code = main(["simplify", str(inputs), str(out), "--trace", str(trace), *backend_args])
        return code, out.read_text(encoding="utf-8"), trace.read_text(encoding="utf-8"), \
            capsys.readouterr().err

    def one_batch(self, lines, backend, vocab):
        """What `simplify` wrote when it ran the whole input as one batch."""
        sources = [tokenize(line) for line in lines]
        results = simplify_batch(sources, backend, vocab, InferenceConfig.zero_tweaks(),
                                 lexicon=default_lexicon())
        return self.written(sources, results)

    def per_line_oracle(self, lines, refs, backend_class, vocab):
        """What `simplify` wrote when it ran each line against its own reference."""
        sources = [tokenize(line) for line in lines]
        lexicon = default_lexicon()
        results = [
            simplify_batch([src], backend_class(tokenize(ref), vocab, lexicon), vocab,
                           InferenceConfig.zero_tweaks(), lexicon=lexicon)[0]
            for src, ref in zip(sources, refs)
        ]
        return self.written(sources, results)

    def written(self, sources, results):
        """(exit code, output, trace, stderr) for these results, in input order."""
        outputs, traces, errors = [], [], []
        for lineno, (src, item) in enumerate(zip(sources, results), 1):
            if item.ok:
                outputs.append(detokenize(item.output))
                traces.append(json.dumps(item.trace.to_dict()))
            else:
                outputs.append(detokenize(src))
                traces.append(json.dumps({"error": item.error}))
                errors.append(f"line {lineno}: {item.error}")
        if errors:
            errors.append(f"{len(errors)} lines failed; their inputs were passed through")
        return (3 if errors else 0, "".join(line + "\n" for line in outputs),
                "".join(line + "\n" for line in traces), "".join(e + "\n" for e in errors))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_stat(self, workdir, capsys, seed):
        tmp_path, corpus, vocab_path = workdir
        model_path = tmp_path / "m.model"
        main(["--seed", str(seed), "train-stat", str(corpus), str(model_path),
              "--vocab", str(vocab_path), "--epochs", "4", "--lr", "0.5",
              "--hash-dim", "4096"])
        lines = self.lines()
        got = self.run_cli(tmp_path, capsys, lines, [
            "--backend", "stat", "--vocab", str(vocab_path), "--model", str(model_path),
        ])
        vocab = TagVocabulary.load(vocab_path)
        want = self.one_batch(lines, StatTaggerModel.load(model_path), vocab)
        assert got == want
        assert got[1] != "".join(line + "\n" for line in lines)  # the model edits

    def test_corpus_oracle(self, workdir, capsys):
        tmp_path, _, vocab_path = workdir
        lines = self.lines()
        got = self.run_cli(tmp_path, capsys, lines,
                           ["--backend", "oracle", "--vocab", str(vocab_path)])
        vocab = TagVocabulary.load(vocab_path)
        sources = [tokenize(line) for line in lines]
        backend = CorpusOracleBackend(list(zip(sources, sources)), vocab, default_lexicon())
        assert got == self.one_batch(lines, backend, vocab)

    def test_oracle_with_references(self, workdir, capsys):
        tmp_path, _, vocab_path = workdir
        lines = self.lines()
        refs = [CORPUS[i % 3][1] for i in range(len(lines))]
        (tmp_path / "refs.txt").write_text("".join(r + "\n" for r in refs), encoding="utf-8")
        got = self.run_cli(tmp_path, capsys, lines, [
            "--backend", "oracle", "--vocab", str(vocab_path),
            "--references", str(tmp_path / "refs.txt"),
        ])
        vocab = TagVocabulary.load(vocab_path)
        assert got == self.per_line_oracle(lines, refs, OracleBackend, vocab)
        assert got[:2] == (0, "".join(r + "\n" for r in refs))

    def test_oracle_with_references_fails_per_line(self, workdir, capsys, monkeypatch):
        tmp_path, _, vocab_path = workdir

        class PoisonedOracle(OracleBackend):
            def predict_batch(self, seqs):
                if "poison" in self.target.words():
                    raise RuntimeError("no gold tags for a poisoned reference")
                return super().predict_batch(seqs)

        monkeypatch.setattr(cli, "OracleBackend", PoisonedOracle)
        lines = self.lines()
        refs = [CORPUS[i % 3][1] for i in range(len(lines))]
        refs[BATCH_SIZE + 5] = "a poison line"
        (tmp_path / "refs.txt").write_text("".join(r + "\n" for r in refs), encoding="utf-8")
        got = self.run_cli(tmp_path, capsys, lines, [
            "--backend", "oracle", "--vocab", str(vocab_path),
            "--references", str(tmp_path / "refs.txt"),
        ])
        vocab = TagVocabulary.load(vocab_path)
        assert got == self.per_line_oracle(lines, refs, PoisonedOracle, vocab)
        assert got[0] == 3
        assert got[3].startswith(f"line {BATCH_SIZE + 6}: RuntimeError: no gold tags")

    @pytest.mark.parametrize("chunk", [1, 2])
    def test_peer_with_a_failing_line(self, workdir, capsys, chunk):
        tmp_path, _, vocab_path = workdir
        lines = self.lines(poison_at=(chunk - 1) * BATCH_SIZE + 5)
        peer_cmd = f"{sys.executable} {PEER} {vocab_path} poison"
        got = self.run_cli(tmp_path, capsys, lines, [
            "--backend", "external", "--vocab", str(vocab_path), "--peer-cmd", peer_cmd,
        ])
        vocab = TagVocabulary.load(vocab_path)
        client = ExternalTaggerClient.from_command(
            [sys.executable, str(PEER), str(vocab_path), "poison"], vocab
        )
        try:
            want = self.one_batch(lines, client, vocab)
        finally:
            client.close()
        assert got == want
        assert got[0] == 3
        assert got[3].startswith(f"line {(chunk - 1) * BATCH_SIZE + 6}: InvariantViolation: ")

    def test_peak_memory_does_not_grow_with_the_input(self, tmp_path):
        # Dense rows of 1,000 tags (8 KB per token) outweigh the tokens, so a
        # peak that grows with the line count shows predictions held across chunks.
        n_tags, dim = 1000, 64
        vocab = TagVocabulary.from_counts({f"$APPEND_w{i}": 1 for i in range(n_tags - 2)}, n_tags)
        vocab_path, model_path = tmp_path / "tags.vocab", tmp_path / "m.model"
        vocab.save(vocab_path)
        model = StatTaggerModel(n_classes=n_tags, hash_seed=1, dim=dim)
        model.cls_bias[0] = 1.0  # KEEP, except where a feature hashes to bucket 3:
        model._set_rows(np.array([3]), np.zeros((2, n_tags)), np.zeros(2))
        model.cls_weights[0, 1] = 5.0  # DELETE there (bucket 3 is row 0); 1 to 5 passes
        model.save(model_path)

        def peak(n_lines):
            inputs = tmp_path / f"in{n_lines}.txt"
            inputs.write_text("".join(f"w{i % 50} w{i % 7} x y z\n" for i in range(n_lines)))
            tracemalloc.start()
            try:
                code = main(["simplify", str(inputs), str(tmp_path / "out.txt"),
                             "--backend", "stat", "--vocab", str(vocab_path),
                             "--model", str(model_path)])
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (code_n, peak_n), (code_4n, peak_4n) = peak(BATCH_SIZE), peak(4 * BATCH_SIZE)
        assert code_n == code_4n == 0
        assert peak_4n <= 1.5 * peak_n, (peak_n, peak_4n)


    @pytest.mark.parametrize("with_references", [False, True])
    def test_sentences_alive_do_not_grow_with_the_input(self, workdir, monkeypatch,
                                                        with_references):
        # Counts live TokenSeq objects as lines are read: a run that holds its
        # input, references or results beyond their chunk shows a growing count.
        tmp_path, _, vocab_path = workdir
        monkeypatch.setattr(cli, "BATCH_SIZE", 8)
        n_lines = 64 * 8
        inputs, refs = tmp_path / "in.txt", tmp_path / "refs.txt"
        inputs.write_text("".join(f"{CORPUS[i % 3][0]} w{i % 8}\n" for i in range(n_lines)))
        refs.write_text("".join(f"{CORPUS[i % 3][1]} w{i % 8}\n" for i in range(n_lines)))

        def alive():
            return sum(isinstance(o, TokenSeq) for o in gc.get_objects())

        samples, calls = [], [0]

        def sampling_tokenize(text):
            if calls[0] % 64 == 0:
                samples.append(alive())
            calls[0] += 1
            return tokenize(text)

        monkeypatch.setattr(cli, "tokenize", sampling_tokenize)
        args = ["simplify", str(inputs), str(tmp_path / "out.txt"),
                "--trace", str(tmp_path / "trace.jsonl"),
                "--backend", "oracle", "--vocab", str(vocab_path)]
        if with_references:
            args += ["--references", str(refs)]
        before = alive()
        assert main(args) == 0
        assert calls[0] == n_lines * (2 if with_references else 1)
        assert max(samples) - before <= 4 * 8, (before, samples)  # about two chunks


class TestLineEnds:
    """A line of a CLI input ends only at "\\n": a CRLF file reads as an LF one,
    and any other "\\r" is whitespace inside its line."""

    def simplify(self, workdir, text, refs=None):
        tmp_path, _, vocab_path = workdir
        inputs, out, trace = tmp_path / "in.txt", tmp_path / "out.txt", tmp_path / "trace.jsonl"
        inputs.write_bytes(text.encode("utf-8"))
        args = ["simplify", str(inputs), str(out), "--trace", str(trace),
                "--backend", "oracle", "--vocab", str(vocab_path)]
        if refs is not None:
            (tmp_path / "refs.txt").write_bytes(refs.encode("utf-8"))
            args += ["--references", str(tmp_path / "refs.txt")]
        assert main(args) == 0
        return out.read_bytes(), len(trace.read_bytes().splitlines())

    @pytest.mark.parametrize("refs", [None, "one two three four\nfive six\n"],
                             ids=["alone", "references"])
    def test_simplify_keeps_a_bare_cr_inside_its_line(self, workdir, refs):
        # Split at the "\r", output line 2 would belong to half of input line 1.
        got = self.simplify(workdir, "one two\rthree four\nfive six\n", refs)
        assert got == (b"one two three four\nfive six\n", 2)

    @pytest.mark.parametrize("refs", [None, "one two\r\nfive\r\n"], ids=["alone", "references"])
    def test_simplify_reads_crlf_as_lf(self, workdir, refs):
        lf = self.simplify(workdir, "one two\nfive six\n", refs and refs.replace("\r\n", "\n"))
        assert self.simplify(workdir, "one two\r\nfive six\r\n", refs) == lf
        assert lf[1] == 2

    @pytest.mark.parametrize("text, want", [
        ("a  b\rc\td\n", b"a b c\td\n"),
        ("a  b\tc\r\nd\r\n", b"a b\tc\nd\n"),
    ], ids=["bare-cr", "crlf"])
    def test_preprocess(self, tmp_path, text, want):
        src, out = tmp_path / "in.tsv", tmp_path / "out.tsv"
        src.write_bytes(text.encode("utf-8"))
        assert main(["preprocess", str(src), str(out)]) == 0
        assert out.read_bytes() == want

    @pytest.mark.parametrize("dev", [DEV.replace("cat sat", "cat\rsat"), DEV.replace("\n", "\r\n")],
                             ids=["bare-cr", "crlf"])
    def test_tune_reads_the_dev_set_as_with_lf(self, workdir, dev):
        tmp_path, _, vocab_path = workdir

        def tuned(text):
            dev_path, cfg_out, log_out = tmp_path / "dev.tsv", tmp_path / "cfg", tmp_path / "log"
            dev_path.write_bytes(text.encode("utf-8"))
            assert main(["--seed", "2", "tune", str(dev_path), "--backend", "oracle",
                         "--vocab", str(vocab_path), "--budget", "4",
                         "--config-out", str(cfg_out), "--log-out", str(log_out)]) == 0
            return cfg_out.read_bytes(), log_out.read_bytes()

        assert tuned(dev) == tuned(DEV)

    @pytest.mark.parametrize("corpus", ["a b\rc\nd e\n", "a b c\r\nd e\r\n"],
                             ids=["bare-cr", "crlf"])
    def test_bench_pairs_each_line_with_its_reference(self, workdir, corpus):
        tmp_path, _, vocab_path = workdir
        sentences, refs, tsv_out = tmp_path / "bench.txt", tmp_path / "refs.txt", tmp_path / "tsv"
        sentences.write_bytes(corpus.encode("utf-8"))
        refs.write_text("a b c\nd e\n", encoding="utf-8")
        assert main(["bench", str(sentences), "--backend", "oracle", "--vocab", str(vocab_path),
                     "--references", str(refs), "--runs", "1", "--tsv-out", str(tsv_out)]) == 0


class TestEvaluateCommand:
    def test_perfect_match_prints_100(self, tmp_path, capsys):
        records = tmp_path / "eval.tsv"
        records.write_text("a b c\ta b\ta b\n", encoding="utf-8")
        assert main(["evaluate", str(records)]) == 0
        out = capsys.readouterr().out
        assert "sari" in out and "100.00" in out

    def test_tsv_report_matches_library(self, tmp_path):
        records_path = tmp_path / "eval.tsv"
        records_path.write_text("a b c\ta b\ta b\tb c\n", encoding="utf-8")
        report_path = tmp_path / "report.tsv"
        assert main(["evaluate", str(records_path), "--tsv-out", str(report_path)]) == 0
        expected = evaluate([EvalRecord("a b c", "a b", ("a b", "b c"))]).to_tsv()
        assert report_path.read_text(encoding="utf-8") == expected


class TestTuneCommand:
    def test_emits_config_and_log(self, workdir, tmp_path):
        _, corpus, vocab_path = workdir
        dev = tmp_path / "dev.tsv"
        dev.write_text(
            "the small cat sat quietly .\tthe cat sat .\n"
            "dogs bark .\tdogs bark .\n",
            encoding="utf-8",
        )
        cfg_out = tmp_path / "tuned.cfg"
        log_out = tmp_path / "log.tsv"
        code = main([
            "--seed", "2", "tune", str(dev),
            "--backend", "oracle", "--vocab", str(vocab_path),
            "--budget", "4", "--config-out", str(cfg_out), "--log-out", str(log_out),
        ])
        assert code == 0
        cfg = InferenceConfig.from_text(cfg_out.read_text())
        assert 1 <= cfg.max_iterations <= 5
        log_lines = log_out.read_text().strip().split("\n")
        assert log_lines[0].startswith("sample_id")
        assert len(log_lines) > 4  # budget samples + refinement

    def test_stat_backend_matches_library(self, workdir, tmp_path):
        _, corpus, vocab_path = workdir
        model_path = train_stat(tmp_path, corpus, vocab_path)
        dev = tmp_path / "dev.tsv"
        dev.write_text(DEV, encoding="utf-8")
        cfg_out, log_out = tmp_path / "tuned.cfg", tmp_path / "log.tsv"
        assert main([
            "--seed", "2", "tune", str(dev),
            "--backend", "stat", "--vocab", str(vocab_path), "--model", str(model_path),
            "--budget", "4", "--config-out", str(cfg_out), "--log-out", str(log_out),
        ]) == 0
        pairs = [line.split("\t") for line in DEV.splitlines()]
        want = tune([(src, (ref,)) for src, ref in pairs], StatTaggerModel.load(model_path),
                    TagVocabulary.load(vocab_path), budget=4, seed=2, lexicon=default_lexicon())
        assert cfg_out.read_text(encoding="utf-8") == want.config.to_text()
        assert log_out.read_text(encoding="utf-8") == tune_log_tsv(want)

    def test_references_is_a_usage_error(self, workdir, tmp_path):
        _, _, vocab_path = workdir
        dev, cfg_out = tmp_path / "dev.tsv", tmp_path / "tuned.cfg"
        dev.write_text(DEV, encoding="utf-8")
        assert main(["tune", str(dev), "--backend", "oracle", "--vocab", str(vocab_path),
                     "--references", str(dev), "--config-out", str(cfg_out)]) == 1
        assert not cfg_out.exists()


class TestBenchCommand:
    def test_report_shape(self, workdir, tmp_path, capsys):
        _, corpus, vocab_path = workdir
        sentences = tmp_path / "bench.txt"
        sentences.write_text("a b c\nd e\n" * 4, encoding="utf-8")
        tsv_out = tmp_path / "bench.tsv"
        code = main([
            "bench", str(sentences), "--backend", "oracle",
            "--vocab", str(vocab_path), "--batch-size", "4", "--runs", "2",
            "--max-iterations", "2", "--tsv-out", str(tsv_out),
        ])
        assert code == 0
        lines = tsv_out.read_text().strip().split("\n")
        assert lines[0].split("\t")[:3] == ["iterations", "mean_s", "median_s"]
        assert len(lines) == 3  # header + iteration rows 1, 2
        run_means = lines[1].split("\t")[4].split(",")
        assert len(run_means) == 2

    def test_oracle_with_one_reference_too_few(self, workdir, tmp_path, capsys):
        _, _, vocab_path = workdir
        sentences, refs = tmp_path / "bench.txt", tmp_path / "refs.txt"
        sentences.write_text("a b c\nd e\n", encoding="utf-8")
        refs.write_text("a b\n", encoding="utf-8")
        tsv_out = tmp_path / "bench.tsv"
        assert main(["bench", str(sentences), "--backend", "oracle", "--vocab", str(vocab_path),
                     "--references", str(refs), "--tsv-out", str(tsv_out)]) == 2
        assert "2 input sentences but 1 references" in capsys.readouterr().err
        assert not tsv_out.exists()


@pytest.mark.parametrize("command", ["tune", "bench"])
def test_peer_backend_is_closed(workdir, tmp_path, command):
    # A peer process or pipe left open fails the test through the
    # ResourceWarning filter in pyproject.toml.
    _, _, vocab_path = workdir
    dev, out = tmp_path / "dev.tsv", tmp_path / "out"
    dev.write_text(DEV, encoding="utf-8")
    args = {
        "tune": ["tune", str(dev), "--budget", "2", "--config-out", str(out)],
        "bench": ["bench", str(dev), "--runs", "1", "--max-iterations", "1",
                  "--tsv-out", str(out)],
    }[command]
    assert main(args + ["--backend", "external", "--vocab", str(vocab_path),
                        "--peer-cmd", f"{sys.executable} {PEER} {vocab_path} ok"]) == 0
    assert out.exists()


class TestModelVocabulary:
    """A stat model runs only with the tag vocabulary it was trained on."""

    PAIRS = [
        ("she strolls home .", "she walks home ."),
        ("he utilized it .", "he used it ."),
        ("they purchased bread .", "they bought bread ."),
    ]

    @pytest.mark.parametrize("command", ["simplify", "tune", "bench"])
    def test_another_vocabulary_is_a_data_error(self, tmp_path, capsys, command):
        corpus, vocab_path = tmp_path / "corpus.tsv", tmp_path / "tags.vocab"
        corpus.write_text("".join(f"{s}\t{t}\n" for s, t in self.PAIRS), encoding="utf-8")
        assert main(["build-vocab", str(corpus), str(vocab_path)]) == 0
        model_path = train_stat(tmp_path, corpus, vocab_path)
        # The same tags with ids 2 and up reversed: the model's class ids
        # still fit, so nothing but the recorded hash tells them apart.
        tags = TagVocabulary.load(vocab_path).tags
        other_path = tmp_path / "other.vocab"
        TagVocabulary([*tags[:2], *reversed(tags[2:])]).save(other_path)
        assert other_path.read_bytes() != vocab_path.read_bytes()

        inputs = tmp_path / "in.txt"
        inputs.write_text("".join(s + "\n" for s, _ in self.PAIRS), encoding="utf-8")
        out, trace, log = tmp_path / "out", tmp_path / "trace.jsonl", tmp_path / "log.tsv"
        args, written = {
            "simplify": (["simplify", str(inputs), str(out), "--trace", str(trace)],
                         [out, trace]),
            "tune": (["tune", str(corpus), "--budget", "2", "--config-out", str(out),
                      "--log-out", str(log)], [out, log]),
            "bench": (["bench", str(inputs), "--runs", "1", "--tsv-out", str(out)], [out]),
        }[command]
        capsys.readouterr()
        assert main(args + ["--backend", "stat", "--vocab", str(other_path),
                            "--model", str(model_path)]) == 2
        assert "trained on another tag vocabulary" in capsys.readouterr().err
        assert not any(path.exists() for path in written)

    def test_a_model_without_a_vocabulary_hash_runs_with_a_warning(self, workdir, capsys):
        tmp_path, _, vocab_path = workdir
        model_path = tmp_path / "m.model"
        StatTaggerModel(n_classes=len(TagVocabulary.load(vocab_path)), hash_seed=1,
                        dim=64).save(model_path)
        inputs, out = tmp_path / "in.txt", tmp_path / "out.txt"
        inputs.write_text("a b c\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["simplify", str(inputs), str(out), "--backend", "stat",
                     "--vocab", str(vocab_path), "--model", str(model_path)]) == 0
        assert capsys.readouterr().err == (
            f"warning: {model_path} records no tag vocabulary; assuming {vocab_path}\n"
        )
        assert out.read_text(encoding="utf-8") == "a b c\n"  # an all-zero model keeps


    def test_a_model_with_a_nan_bias_is_a_data_error(self, workdir, capsys):
        tmp_path, _, vocab_path = workdir
        model_path = tmp_path / "m.model"
        model = StatTaggerModel(n_classes=len(TagVocabulary.load(vocab_path)), hash_seed=1, dim=64)
        model.det_bias = float("nan")  # every line would fail in predict
        model.save(model_path)
        inputs, out = tmp_path / "in.txt", tmp_path / "out.txt"
        inputs.write_text("a b c\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["simplify", str(inputs), str(out), "--backend", "stat",
                     "--vocab", str(vocab_path), "--model", str(model_path)]) == 2
        assert "det_bias holds a non-finite value" in capsys.readouterr().err
        assert not out.exists()

    def test_a_v1_model_is_a_data_error_that_asks_for_retraining(self, workdir, capsys):
        tmp_path, corpus, vocab_path = workdir
        model_path = train_stat(tmp_path, corpus, vocab_path)
        model_path.write_bytes(model_path.read_bytes().replace(
            b"tagsimp-stat-model v2\n", b"tagsimp-stat-model v1\n", 1))
        inputs, out = tmp_path / "in.txt", tmp_path / "out.txt"
        inputs.write_text("a b c\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["simplify", str(inputs), str(out), "--backend", "stat",
                     "--vocab", str(vocab_path), "--model", str(model_path)]) == 2
        assert "retrain it with `tagsimp train-stat`" in capsys.readouterr().err
        assert not out.exists()


class TestUsageRules:
    """A broken backend-flag rule exits 1 before any file is read or written."""

    @pytest.fixture()
    def run(self, workdir, capsys):
        tmp_path, _, vocab_path = workdir
        dev = tmp_path / "dev.tsv"
        dev.write_text(DEV, encoding="utf-8")
        out, trace, log = tmp_path / "out", tmp_path / "trace.jsonl", tmp_path / "log.tsv"

        def run(command, flags, vocab=vocab_path):
            args, written = {
                "simplify": (["simplify", str(dev), str(out), "--trace", str(trace)],
                             [out, trace]),
                "tune": (["tune", str(dev), "--config-out", str(out), "--log-out", str(log)],
                         [out, log]),
                "bench": (["bench", str(dev), "--tsv-out", str(out)], [out]),
            }[command]
            capsys.readouterr()
            code = main(args + ["--vocab", str(vocab)] + flags)
            assert not any(path.exists() for path in written)
            return code, capsys.readouterr().err

        return run

    @pytest.mark.parametrize("command", ["simplify", "tune", "bench"])
    def test_stat_needs_a_model(self, run, command):
        code, err = run(command, ["--backend", "stat"])
        assert code == 1
        assert "--model is required with --backend stat" in err

    @pytest.mark.parametrize("peer", [[], ["--peer-host", "127.0.0.1"]], ids=["none", "no-port"])
    @pytest.mark.parametrize("command", ["simplify", "tune", "bench"])
    def test_external_needs_a_peer(self, run, command, peer):
        code, err = run(command, ["--backend", "external"] + peer)
        assert code == 1
        assert "required with --backend external" in err

    @pytest.mark.parametrize("peer_cmd", [" ", '"x'], ids=["blank", "unclosed-quote"])
    def test_peer_cmd_must_split_into_a_command(self, run, peer_cmd):
        code, err = run("simplify", ["--backend", "external", "--peer-cmd", peer_cmd])
        assert code == 1
        assert "--peer-cmd" in err

    @pytest.mark.parametrize("port", ["0", "70000", "-1"])
    def test_peer_port_must_be_a_tcp_port(self, run, port):
        # The socket layer would take 70000 as port 4464.
        code, err = run("simplify", ["--backend", "external", "--peer-host", "127.0.0.1",
                                     "--peer-port", port])
        assert code == 1
        assert "--peer-port" in err

    @pytest.mark.parametrize("command", ["simplify", "bench"])
    def test_references_need_the_oracle(self, workdir, run, command):
        tmp_path, corpus, vocab_path = workdir
        model_path = train_stat(tmp_path, corpus, vocab_path)
        code, err = run(command, ["--backend", "stat", "--model", str(model_path),
                                  "--references", str(corpus)])
        assert code == 1
        assert "--references needs --backend oracle" in err

    @pytest.mark.parametrize("command", ["simplify", "bench"])
    def test_parallelism_is_not_an_option(self, run, command):
        code, err = run(command, ["--backend", "oracle", "--parallelism", "2"])
        assert code == 1
        assert "unrecognized arguments: --parallelism 2" in err

    def test_is_checked_before_the_vocabulary_is_read(self, run, tmp_path):
        code, err = run("simplify", ["--backend", "stat"], vocab=tmp_path / "missing.vocab")
        assert code == 1
        assert "--model is required" in err


class TestTrainStatValues:
    @pytest.mark.parametrize("flags, message", [
        (["--hash-dim", "0"], "--hash-dim and --epochs must be >= 1"),
        (["--epochs", "-3"], "--hash-dim and --epochs must be >= 1"),
        (["--lr", "nan"], "--lr must be finite and > 0"),
        (["--lr", "inf"], "--lr must be finite and > 0"),
        (["--lr", "0"], "--lr must be finite and > 0"),
    ], ids=["hash-dim-0", "epochs-negative", "lr-nan", "lr-inf", "lr-0"])
    def test_is_a_data_error_and_writes_no_model(self, workdir, capsys, flags, message):
        tmp_path, corpus, vocab_path = workdir
        model_path = tmp_path / "m.model"
        capsys.readouterr()
        assert main(["train-stat", str(corpus), str(model_path),
                     "--vocab", str(vocab_path)] + flags) == 2
        assert message in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)], ids=["negative", "2**64"])
    def test_seed_outside_the_hash_key_range(self, workdir, capsys, seed):
        tmp_path, corpus, vocab_path = workdir
        model_path = tmp_path / "m.model"
        capsys.readouterr()
        assert main(["--seed", seed, "train-stat", str(corpus), str(model_path),
                     "--vocab", str(vocab_path)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not model_path.exists()

    def test_reports_the_hash_rows_it_stored(self, workdir, capsys):
        tmp_path, corpus, vocab_path = workdir
        capsys.readouterr()
        model_path = train_stat(tmp_path, corpus, vocab_path)
        trained = len(StatTaggerModel.load(model_path).hashes)
        assert 0 < trained < 4096
        assert capsys.readouterr().err.endswith(
            f"; {trained} of 4096 hash rows trained ({model_path.stat().st_size / 1e6:.2f} MB)\n")


class TestExitCodes:
    def test_usage_error(self):
        assert main(["no-such-command"]) == 1
        assert main(["simplify"]) == 1

    def test_data_error(self, tmp_path):
        missing = tmp_path / "nope.tsv"
        assert main(["evaluate", str(missing)]) == 2

    def test_backend_error(self, workdir, tmp_path):
        _, _, vocab_path = workdir
        inputs = tmp_path / "in.txt"
        inputs.write_text("a b\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        code = main([
            "simplify", str(inputs), str(out),
            "--backend", "external", "--vocab", str(vocab_path),
            "--peer-cmd", "/nonexistent/peer-binary",
        ])
        assert code == 3

    def test_peer_line_that_is_not_utf8_is_a_backend_error(self, workdir, tmp_path, capsys):
        _, _, vocab_path = workdir
        inputs = tmp_path / "in.txt"
        inputs.write_text("a b\n", encoding="utf-8")
        code = main([
            "simplify", str(inputs), str(tmp_path / "out.txt"),
            "--backend", "external", "--vocab", str(vocab_path),
            "--peer-cmd", f"{sys.executable} {PEER} {vocab_path} not-utf8",
        ])
        assert code == 3
        assert "not UTF-8" in capsys.readouterr().err

    def test_external_backend_over_tcp(self, workdir, tmp_path):
        from tagsimp.core import TagVocabulary
        from test_external import _TcpPeer

        _, _, vocab_path = workdir
        peer = _TcpPeer(TagVocabulary.load(vocab_path))
        peer.start()
        inputs = tmp_path / "in.txt"
        inputs.write_text("a b\nc\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        code = main([
            "simplify", str(inputs), str(out),
            "--backend", "external", "--vocab", str(vocab_path),
            "--peer-host", "127.0.0.1", "--peer-port", str(peer.port),
        ])
        assert code == 0
        assert out.read_text(encoding="utf-8") == "a b\nc\n"  # all-KEEP peer

    def test_mismatched_references(self, workdir, tmp_path):
        _, _, vocab_path = workdir
        inputs = tmp_path / "in.txt"
        refs = tmp_path / "refs.txt"
        inputs.write_text("a\nb\n", encoding="utf-8")
        refs.write_text("a\n", encoding="utf-8")
        out, trace = tmp_path / "out.txt", tmp_path / "trace.jsonl"
        code = main([
            "simplify", str(inputs), str(out), "--trace", str(trace),
            "--backend", "oracle", "--vocab", str(vocab_path),
            "--references", str(refs),
        ])
        assert code == 2
        assert not out.exists() and not trace.exists()

    def test_non_finite_tweaks_are_data_errors(self, workdir, tmp_path, capsys):
        _, _, vocab_path = workdir
        inputs = tmp_path / "in.txt"
        inputs.write_text("a b\n", encoding="utf-8")
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text("keep_bias = 0.5\nmin_edit_prob = nan\n")
        base = ["simplify", str(inputs), str(tmp_path / "out.txt"),
                "--backend", "oracle", "--vocab", str(vocab_path)]
        assert main(base + ["--keep-bias", "nan"]) == 2
        assert "keep_bias must be finite" in capsys.readouterr().err
        assert main(base + ["--delete-bias=-inf"]) == 2
        assert "delete_bias must be finite" in capsys.readouterr().err
        assert main(base + ["--config", str(cfg_path)]) == 2
        assert "min_edit_prob must be finite" in capsys.readouterr().err
        assert main(base + ["--config", str(cfg_path), "--min-edit-prob", "0.5"]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
