"""Setup shim for environments without the `wheel` package.

All project metadata lives in ``pyproject.toml``; this file only enables
legacy editable installs (``pip install -e . --no-use-pep517``) on systems
where PEP 660 builds are unavailable offline.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.21"],
    entry_points={
        "console_scripts": [
            "repro-campaign=repro.__main__:main",
        ]
    },
)
