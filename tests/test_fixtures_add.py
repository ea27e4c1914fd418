"""``nlo fixtures add``: what it refuses and what it records."""

import pytest

from nlo.cli import main
from nlo.gateway import FixtureStore, GenerationRequest, ReplayBackend, user_prompt


def add_argv(tmp_path, store, response=b"answer", *extra):
    (tmp_path / "p.txt").write_bytes(b"ask me")
    (tmp_path / "r.txt").write_bytes(response)
    argv = ["fixtures", "add", "--fixtures", str(store), "--model", "m"]
    argv += ["--prompt-file", str(tmp_path / "p.txt"), "--response-file", str(tmp_path / "r.txt")]
    return argv + list(extra)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "-1", "-0.5"])
def test_add_refuses_a_temperature_that_is_not_a_finite_number_at_least_0(
    capsys, tmp_path, value
):
    store = tmp_path / "store"
    code = main(add_argv(tmp_path, store, b"answer", f"--temperature={value}"))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("nlo: --temperature must be a finite number >= 0, not ")
    assert not store.exists()


def test_add_records_a_crlf_response_byte_for_byte(capsys, tmp_path):
    store = tmp_path / "store"
    response = "2| a\r\n3| b\r\n\r4| c"
    assert main(add_argv(tmp_path, store, response.encode("utf-8"))) == 0
    key = capsys.readouterr().out.strip()
    body = (store / f"{key}.rec").read_bytes().partition(b"\n")[2]
    assert body == response.encode("utf-8")
    backend = ReplayBackend(FixtureStore(store), backend_id="http", model_id="m")
    request = GenerationRequest(prompt=user_prompt("", "ask me"))
    assert backend.key_for(request) == key
    assert backend.complete(request) == response
