import pytest

from nlo.config import ConfigError, Settings, load_settings, make_backend
from nlo.gateway import (
    GenerationRequest,
    HttpBackend,
    ReplayBackend,
    ScriptedBackend,
    request_key,
    user_prompt,
)


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
        registry = settings.profile_registry()
        assert registry["rb"].line_comment_token == "#"
        assert "python" in registry  # shipped profiles remain

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

    def test_non_mapping_rejected(self, tmp_path):
        config = tmp_path / "nlo.yaml"
        config.write_text("- just\n- a list\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_settings(config)


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
