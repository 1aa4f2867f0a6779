from .cli import main_and_exit

main_and_exit()
