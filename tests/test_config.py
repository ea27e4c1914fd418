import pytest

from nlo.cli import _load_unit, main
from nlo.config import ConfigError, Settings, load_settings, make_backend
from nlo.gateway import (
    GenerationRequest,
    HttpBackend,
    ReplayBackend,
    ScriptedBackend,
    request_key,
    user_prompt,
)
from nlo.source_model import C_LIKE_PROFILE


class TestLoadSettings:
    def test_defaults_without_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        settings = load_settings()
        assert settings.backend == "replay"
        assert settings.technique == "infilling"

    def test_explicit_file(self, tmp_path):
        config = tmp_path / "nlo.yaml"
        config.write_text(
            "backend: scripted\n"
            "model: my-model\n"
            "technique: interleaved\n"
            "max_output: 2048\n",
            encoding="utf-8",
        )
        settings = load_settings(config)
        assert settings.backend == "scripted"
        assert settings.model == "my-model"
        assert settings.technique == "interleaved"
        assert settings.max_output == 2048

    def test_default_file_in_cwd(self, tmp_path, monkeypatch):
        (tmp_path / "nlo.yaml").write_text("model: from-file\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert load_settings().model == "from-file"

    def test_profile_overrides(self, tmp_path):
        config = tmp_path / "nlo.yaml"
        config.write_text(
            "profiles:\n"
            "  - name: rb\n"
            "    line_comment_token: '#'\n",
            encoding="utf-8",
        )
        settings = load_settings(config)
        (tmp_path / "a.rb").write_text("x = 1\n", encoding="utf-8")
        (tmp_path / "b.c").write_text("int x;\n", encoding="utf-8")
        assert _load_unit(str(tmp_path / "a.rb"), settings).profile.name == "rb"
        # shipped profiles remain
        assert _load_unit(str(tmp_path / "b.c"), settings).profile == C_LIKE_PROFILE

    @pytest.mark.parametrize("name", ["lua", "LUA"])
    def test_a_profile_matches_its_extension_in_any_case(self, tmp_path, name):
        config = tmp_path / "nlo.yaml"
        config.write_text(
            f"profiles:\n  - name: {name}\n    line_comment_token: '--'\n", encoding="utf-8"
        )
        settings = load_settings(config)
        for filename in ("f.lua", "F.LUA", "g.Lua"):
            (tmp_path / filename).write_text("x = 1\n", encoding="utf-8")
            assert _load_unit(str(tmp_path / filename), settings).profile.name == name
        (tmp_path / "F.C").write_text("int x;\n", encoding="utf-8")
        assert _load_unit(str(tmp_path / "F.C"), settings).profile == C_LIKE_PROFILE

    def test_profile_names_differing_only_in_case_exit_1(self, capsys, tmp_path):
        config = tmp_path / "nlo.yaml"
        config.write_text(
            "profiles:\n"
            "  - name: lua\n    line_comment_token: '--'\n"
            "  - name: LUA\n    line_comment_token: '--'\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError):
            load_settings(config)
        assert main(["--config", str(config), "check", "a.lua"]) == 1
        err = capsys.readouterr().err
        assert err == "nlo: config error: profiles names 'lua' and 'LUA' differ only in case\n"

    @pytest.mark.parametrize(
        "text",
        [
            "temperature: hot\n",
            "temperature: -0.5\n",
            "temperature: true\n",
            "max_output: lots\n",
            "max_output: 1.5\n",
            "max_output: true\n",
            "record: 'yes'\n",
            "record: 1\n",
            "model: 5\n",
            "fixtures: 5\n",
            "fewshot_set: 7\n",
            "backend_id: [1]\n",
            "backend: http\nhttp: 5\n",
            "http:\n  url: 5\n",
            "http:\n  request_template: [prompt]\n",
            "http:\n  response_path: 5\n",
            "http:\n  response_path: [choices, 1.5]\n",
            "http:\n  headers: 5\n",
            "http:\n  mode: chatty\n",
        ],
    )
    def test_mistyped_value_rejected(self, tmp_path, text):
        config = tmp_path / "nlo.yaml"
        config.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError):
            load_settings(config)

    def test_well_typed_values_accepted(self, tmp_path):
        config = tmp_path / "nlo.yaml"
        config.write_text(
            "temperature: 0\nmax_output: null\nrecord: true\nunknown_key: 1\n",
            encoding="utf-8",
        )
        settings = load_settings(config)
        assert settings.temperature == 0
        assert settings.max_output is None and settings.record is True

    def test_integer_temperature_keys_like_the_default(self, tmp_path):
        config = tmp_path / "nlo.yaml"
        config.write_text("temperature: 0\n", encoding="utf-8")
        prompt = user_prompt("system", "user")

        def key(temperature):
            request = GenerationRequest(prompt=prompt, temperature=temperature)
            return request_key("http", "default", request)

        assert key(load_settings(config).temperature) == key(Settings().temperature)

    @pytest.mark.parametrize(
        "text",
        [
            "profiles:\n  - name: rb\n",
            "profiles:\n  - just-a-string\n",
            "profiles:\n  - name: rb\n    line_comment_token: 'a b'\n",
            "profiles: 5\n",
        ],
    )
    def test_malformed_profile_rejected(self, tmp_path, text):
        config = tmp_path / "nlo.yaml"
        config.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError):
            load_settings(config)

    @pytest.mark.parametrize("name", ["''", "'.lsp'", "lisp.lsp", "a/b", "'a\\b'", "'l sp'", "5"])
    def test_profile_name_must_be_an_extension(self, tmp_path, name):
        config = tmp_path / "nlo.yaml"
        config.write_text(
            f"profiles:\n  - name: {name}\n    line_comment_token: ';;'\n", encoding="utf-8"
        )
        with pytest.raises(ConfigError, match="profiles name must be a file extension"):
            load_settings(config)

    def test_non_mapping_rejected(self, tmp_path):
        config = tmp_path / "nlo.yaml"
        config.write_text("- just\n- a list\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_settings(config)

    @pytest.mark.parametrize(
        "text",
        ["http: [unclosed\n", "model: a: b\n", "model: 'open\n", "\t- tab\n"],
    )
    def test_malformed_yaml_exits_1_with_one_line(self, capsys, tmp_path, text):
        config = tmp_path / "bad.yaml"
        config.write_text(text, encoding="utf-8")
        assert main(["--config", str(config), "check", "a.py"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"nlo: config error: config file {config} is not valid YAML: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "text",
        [
            "max_output: -1\n",
            "max_output: 0\n",
            "temperature: .inf\n",
            "temperature: -.inf\n",
            "temperature: .nan\n",
        ],
    )
    def test_unusable_value_exits_1_at_load(self, capsys, tmp_path, text):
        config = tmp_path / "nlo.yaml"
        config.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError):
            load_settings(config)
        assert main(["--config", str(config), "fixtures", "list", "--fixtures", "x"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"nlo: config error: {text.split(':')[0]} must be ")
        assert len(err.splitlines()) == 1


class TestMakeBackend:
    def test_replay_backend(self, tmp_path):
        settings = Settings(fixtures=str(tmp_path / "store"))
        backend = make_backend(settings)
        assert isinstance(backend, ReplayBackend)
        assert backend.record_from is None

    def test_scripted_backend(self, tmp_path):
        responses = tmp_path / "responses.json"
        responses.write_text('["one", "two"]', encoding="utf-8")
        settings = Settings(backend="scripted", responses_file=str(responses))
        backend = make_backend(settings)
        assert isinstance(backend, ScriptedBackend)

    def test_scripted_needs_responses(self):
        with pytest.raises(ConfigError):
            make_backend(Settings(backend="scripted"))

    def test_http_backend_with_env_key(self, monkeypatch):
        monkeypatch.setenv("NLO_API_KEY", "sekrit")
        settings = Settings(
            backend="http",
            model="m",
            http={
                "url": "https://api.example/v1",
                "request_template": {"prompt": "{prompt}"},
                "response_path": ["text"],
                "headers": {"Authorization": "Bearer ${NLO_API_KEY}"},
            },
        )
        backend = make_backend(settings)
        assert isinstance(backend, HttpBackend)
        assert backend.config.headers["Authorization"] == "Bearer sekrit"

    def test_missing_env_var_is_config_error(self, monkeypatch):
        monkeypatch.delenv("NLO_MISSING_KEY", raising=False)
        settings = Settings(
            backend="http",
            http={
                "url": "u",
                "request_template": {},
                "response_path": [],
                "headers": {"Authorization": "${NLO_MISSING_KEY}"},
            },
        )
        with pytest.raises(ConfigError):
            make_backend(settings)

    def test_incomplete_http_config_rejected(self):
        settings = Settings(backend="http", http={"url": "u"})
        with pytest.raises(ConfigError):
            make_backend(settings)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            make_backend(Settings(backend="telepathy"))

    def test_record_mode_requires_http_config(self, tmp_path):
        settings = Settings(fixtures=str(tmp_path / "store"), record=True)
        with pytest.raises(ConfigError):
            make_backend(settings)


class TestFieldMessages:
    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "profiles:\n  - name: lua\n    line_comment_token: 5\n",
                "profiles line_comment_token must be a non-empty string without whitespace, not 5",
            ),
            ("profiles:\n  - lua\n", "profiles must be a list of mappings, not ['lua']"),
            (
                "profiles:\n  - name: lua\n",
                "profiles entry is missing its line_comment_token field",
            ),
            (
                "profiles:\n  - line_comment_token: '--'\n",
                "profiles entry is missing its name field",
            ),
        ],
    )
    def test_malformed_profiles_entry_names_its_field(self, capsys, tmp_path, text, message):
        config = tmp_path / "nlo.yaml"
        config.write_text(text, encoding="utf-8")
        assert main(["--config", str(config), "check", "a.py"]) == 1
        err = capsys.readouterr().err
        assert err == f"nlo: config error: {message}\n"
        assert "Error(" not in err

    def test_echoed_value_is_cut_at_60_characters(self, tmp_path):
        headers = "h" * 200
        config = tmp_path / "nlo.yaml"
        config.write_text(f"http: {{headers: {headers}}}\n", encoding="utf-8")
        with pytest.raises(ConfigError) as caught:
            load_settings(config)
        assert str(caught.value) == f"http.headers must be a mapping, not {repr(headers)[:60]}"
