import hypothesis

hypothesis.settings.register_profile(
    "ci", derandomize=True, max_examples=40, deadline=None)
# a larger fixed draw for the CI step that runs the main(argv) fuzz test
# alone under `timeout`, so that a hang fails the step instead of stalling it
hypothesis.settings.register_profile(
    "hangs", derandomize=True, max_examples=5000, deadline=None)
hypothesis.settings.load_profile("ci")
